#pragma once

#include <optional>
#include <span>
#include <string>
#include <vector>

#include "common/rng.hpp"
#include "common/time.hpp"
#include "common/units.hpp"
#include "geo/coords.hpp"
#include "topo/compiled_path.hpp"
#include "topo/types.hpp"

namespace sixg::topo {

/// An autonomous system: the unit of routing policy.
struct AutonomousSystem {
  AsId id;
  std::uint32_t asn = 0;
  std::string name;
};

/// A router/host with geographic embedding. `processing_delay` is the
/// per-packet forwarding cost paid when a packet transits this node.
struct Node {
  NodeId id;
  std::string name;
  std::string ipv4;
  NodeKind kind = NodeKind::kRouter;
  AsId as_id;
  geo::LatLon position;
  Duration processing_delay;
};

/// Point-to-point link. Latency = geometric propagation (fibre) +
/// `extra_latency` (equipment, CGNAT, access tail) and load-dependent
/// queueing jitter sampled per traversal.
struct Link {
  LinkId id;
  NodeId a;
  NodeId b;
  LinkRelation relation = LinkRelation::kIntraAs;
  DataRate capacity = DataRate::gbps(10);
  Duration extra_latency;
  double length_km = 0.0;   ///< derived from endpoint positions
  double utilization = 0.3; ///< mean offered load / capacity, in [0,1)

  [[nodiscard]] Duration propagation() const {
    return Duration::from_micros_f(geo::fiber_delay_us(length_km));
  }
};

/// A loop-free router-level path with its deterministic latency parts.
struct Path {
  std::vector<NodeId> nodes;  ///< src first, dst last
  std::vector<LinkId> links;  ///< nodes.size() - 1 entries
  Duration base_one_way;      ///< propagation + extra + processing
  double distance_km = 0.0;   ///< geometric length of traversed links

  [[nodiscard]] bool valid() const { return !nodes.empty(); }
  [[nodiscard]] std::size_t hop_count() const {
    return nodes.empty() ? 0 : nodes.size() - 1;
  }
};

/// The Internet model: AS graph + router graph + policy routing +
/// latency sampling. All mutation happens during scenario construction;
/// afterwards the object is logically immutable and safe to share across
/// replication worker threads (sampling takes an external Rng).
///
/// Routing is computed on every query as a pure function of the current
/// topology: the next query sees every mutation, and concurrent const
/// queries need no lock. Mutation itself is single-threaded and
/// invalidates `links_of` spans.
class Network {
 public:
  // -- construction ---------------------------------------------------------
  AsId add_as(std::uint32_t asn, std::string name);
  NodeId add_node(std::string name, std::string ipv4, NodeKind kind, AsId as,
                  geo::LatLon position,
                  Duration processing_delay = Duration::micros(150));

  struct LinkOptions {
    DataRate capacity = DataRate::gbps(10);
    Duration extra_latency;
    double utilization = 0.3;
    /// Override geometric length (e.g. non-great-circle fibre runs).
    std::optional<double> length_km_override;
  };
  /// Relation is from a's perspective; kIntraAs requires both nodes in the
  /// same AS, the other relations require different ASes.
  LinkId add_link(NodeId a, NodeId b, LinkRelation relation,
                  const LinkOptions& options);
  LinkId add_link(NodeId a, NodeId b, LinkRelation relation) {
    return add_link(a, b, relation, LinkOptions{});
  }

  /// Take an alive link out of service (a fibre cut). Its LinkId stays
  /// reserved for restore_link().
  void remove_link(LinkId id);

  /// Revive a link previously removed with remove_link(), under the SAME
  /// LinkId — the fault-injection repair path (link MTTR elapses and the
  /// fibre comes back). The link rejoins its endpoints' adjacency in
  /// LinkId order, so routing tie-breaks are those before the cut.
  void restore_link(LinkId id);

  /// Is `id` currently alive (not removed)?
  [[nodiscard]] bool link_alive(LinkId id) const;

  // -- accessors ------------------------------------------------------------
  [[nodiscard]] const Node& node(NodeId id) const;
  [[nodiscard]] const Link& link(LinkId id) const;
  [[nodiscard]] const AutonomousSystem& as_of(AsId id) const;
  [[nodiscard]] std::size_t node_count() const { return nodes_.size(); }
  [[nodiscard]] std::size_t link_count() const;
  [[nodiscard]] std::size_t as_count() const { return ases_.size(); }
  [[nodiscard]] std::optional<NodeId> find_node(std::string_view name) const;

  /// Alive links incident to `n` in ascending LinkId, as a view over the
  /// adjacency list — no allocation. The span is invalidated by any
  /// topology mutation (add_link/remove_link/restore_link/add_node);
  /// snapshot into a vector when iterating across mutations.
  [[nodiscard]] std::span<const LinkId> links_of(NodeId n) const;

  /// Other endpoint of `l` as seen from `n`.
  [[nodiscard]] NodeId peer_of(LinkId l, NodeId n) const;

  // -- routing --------------------------------------------------------------
  /// Best policy-compliant AS-level route from every AS towards `dst`.
  struct AsRoute {
    RouteSource source = RouteSource::kNone;
    std::uint32_t as_hops = ~0u;
    AsId next;  ///< next AS on the path (invalid for self/unreachable)
  };
  [[nodiscard]] std::vector<AsRoute> compute_as_routes_to(AsId dst) const;

  /// AS-level path src -> dst under valley-free policy; empty if
  /// unreachable.
  [[nodiscard]] std::vector<AsId> as_path(AsId src, AsId dst) const;

  /// Router-level path: intra-AS shortest latency, inter-AS constrained to
  /// the policy AS path (layered Dijkstra). Invalid path if unreachable.
  [[nodiscard]] Path find_path(NodeId src, NodeId dst) const;

  // -- latency --------------------------------------------------------------
  /// Deterministic one-way floor of a path (no queueing).
  [[nodiscard]] Duration base_one_way(const Path& path) const {
    return path.base_one_way;
  }

  /// Sample a full round trip including queueing jitter on each link
  /// traversal (forward and reverse sampled independently).
  [[nodiscard]] Duration sample_rtt(const Path& path, Rng& rng) const;

  /// Sample the one-way queueing-inclusive latency.
  [[nodiscard]] Duration sample_one_way(const Path& path, Rng& rng) const;

  /// Sample only the queueing component of one traversal of `l`.
  [[nodiscard]] Duration sample_queueing(LinkId l, Rng& rng) const {
    return sample_link_queueing(link(l), rng);
  }

  /// Flatten `path` for cheap repeated sampling (see CompiledPath).
  /// Recompile after topology mutation — compiled paths snapshot link
  /// parameters and do not observe later changes.
  [[nodiscard]] CompiledPath compile(const Path& path) const;

 private:
  [[nodiscard]] Duration sample_link_queueing(const Link& l, Rng& rng) const;
  [[nodiscard]] Path intra_as_path(NodeId src, NodeId dst) const;
  [[nodiscard]] Path layered_path(NodeId src, NodeId dst,
                                  const std::vector<AsId>& as_seq) const;
  void finalize_path(Path& path) const;

  std::vector<AutonomousSystem> ases_;
  std::vector<Node> nodes_;
  std::vector<Link> links_;
  std::vector<bool> link_alive_;
  /// node -> alive incident links, ascending LinkId (the relaxation
  /// order of layered_path, and so its tie-breaks).
  std::vector<std::vector<LinkId>> adjacency_;

  // AS-level adjacency (rebuilt incrementally on link add/remove).
  struct AsAdjacency {
    std::vector<AsId> providers;
    std::vector<AsId> customers;
    std::vector<AsId> peers;
  };
  std::vector<AsAdjacency> as_adjacency_;
  void add_as_edge(AsId customer, AsId provider, bool peer);
  void rebuild_as_adjacency();
};

}  // namespace sixg::topo
