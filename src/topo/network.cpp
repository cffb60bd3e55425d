#include "topo/network.hpp"

#include <algorithm>
#include <limits>
#include <queue>

#include "common/assert.hpp"
#include "stats/distributions.hpp"

namespace sixg::topo {

namespace {
constexpr std::int64_t kInfCost = std::numeric_limits<std::int64_t>::max();
}  // namespace

// ---------------------------------------------------------------------------
// construction
// ---------------------------------------------------------------------------

AsId Network::add_as(std::uint32_t asn, std::string name) {
  const AsId id{std::uint32_t(ases_.size())};
  ases_.push_back(AutonomousSystem{id, asn, std::move(name)});
  as_adjacency_.emplace_back();
  return id;
}

NodeId Network::add_node(std::string name, std::string ipv4, NodeKind kind,
                         AsId as, geo::LatLon position,
                         Duration processing_delay) {
  SIXG_ASSERT(as.value() < ases_.size(), "unknown AS");
  const NodeId id{std::uint32_t(nodes_.size())};
  nodes_.push_back(Node{id, std::move(name), std::move(ipv4), kind, as,
                        position, processing_delay});
  adjacency_.emplace_back();
  return id;
}

LinkId Network::add_link(NodeId a, NodeId b, LinkRelation relation,
                         const LinkOptions& options) {
  SIXG_ASSERT(a.value() < nodes_.size() && b.value() < nodes_.size(),
              "unknown node");
  SIXG_ASSERT(a != b, "self-links are not allowed");
  const Node& na = nodes_[a.value()];
  const Node& nb = nodes_[b.value()];
  if (relation == LinkRelation::kIntraAs) {
    SIXG_ASSERT(na.as_id == nb.as_id, "intra-AS link must stay inside one AS");
  } else {
    SIXG_ASSERT(na.as_id != nb.as_id, "inter-AS link must cross ASes");
  }
  const LinkId id{std::uint32_t(links_.size())};
  Link l;
  l.id = id;
  l.a = a;
  l.b = b;
  l.relation = relation;
  l.capacity = options.capacity;
  l.extra_latency = options.extra_latency;
  l.utilization = options.utilization;
  l.length_km = geo::distance_km(na.position, nb.position);
  links_.push_back(l);
  link_alive_.push_back(true);
  adjacency_[a.value()].push_back(id);
  adjacency_[b.value()].push_back(id);
  rebuild_as_adjacency();
  return id;
}

void Network::remove_link(LinkId id) {
  SIXG_ASSERT(id.value() < links_.size(), "unknown link");
  SIXG_ASSERT(link_alive_[id.value()],
              "remove_link on a link that is already removed");
  link_alive_[id.value()] = false;
  const Link& l = links_[id.value()];
  for (const NodeId n : {l.a, l.b}) {
    auto& adj = adjacency_[n.value()];
    adj.erase(std::find(adj.begin(), adj.end(), id));
  }
  rebuild_as_adjacency();
}

void Network::restore_link(LinkId id) {
  SIXG_ASSERT(id.value() < links_.size(), "unknown link");
  SIXG_ASSERT(!link_alive_[id.value()],
              "restore_link on a link that is already alive");
  link_alive_[id.value()] = true;
  const Link& l = links_[id.value()];
  for (const NodeId n : {l.a, l.b}) {
    auto& adj = adjacency_[n.value()];
    adj.insert(std::lower_bound(adj.begin(), adj.end(), id), id);
  }
  rebuild_as_adjacency();
}

bool Network::link_alive(LinkId id) const {
  SIXG_ASSERT(id.value() < links_.size(), "unknown link");
  return link_alive_[id.value()];
}

void Network::add_as_edge(AsId customer, AsId provider, bool peer) {
  auto& cust_adj = as_adjacency_[customer.value()];
  auto& prov_adj = as_adjacency_[provider.value()];
  if (peer) {
    if (std::find(cust_adj.peers.begin(), cust_adj.peers.end(), provider) ==
        cust_adj.peers.end()) {
      cust_adj.peers.push_back(provider);
      prov_adj.peers.push_back(customer);
    }
  } else {
    if (std::find(cust_adj.providers.begin(), cust_adj.providers.end(),
                  provider) == cust_adj.providers.end()) {
      cust_adj.providers.push_back(provider);
      prov_adj.customers.push_back(customer);
    }
  }
}

void Network::rebuild_as_adjacency() {
  for (auto& adj : as_adjacency_) adj = AsAdjacency{};
  for (std::size_t i = 0; i < links_.size(); ++i) {
    if (!link_alive_[i]) continue;
    const Link& l = links_[i];
    const AsId as_a = nodes_[l.a.value()].as_id;
    const AsId as_b = nodes_[l.b.value()].as_id;
    switch (l.relation) {
      case LinkRelation::kIntraAs:
        break;
      case LinkRelation::kCustomerOfB:
        add_as_edge(/*customer=*/as_a, /*provider=*/as_b, /*peer=*/false);
        break;
      case LinkRelation::kProviderOfB:
        add_as_edge(/*customer=*/as_b, /*provider=*/as_a, /*peer=*/false);
        break;
      case LinkRelation::kPeer:
        add_as_edge(as_a, as_b, /*peer=*/true);
        break;
    }
  }
  // Deterministic neighbour ordering (by ASN) for reproducible tie-breaks.
  auto by_asn = [this](AsId x, AsId y) {
    return ases_[x.value()].asn < ases_[y.value()].asn;
  };
  for (auto& adj : as_adjacency_) {
    std::sort(adj.providers.begin(), adj.providers.end(), by_asn);
    std::sort(adj.customers.begin(), adj.customers.end(), by_asn);
    std::sort(adj.peers.begin(), adj.peers.end(), by_asn);
  }
}

// ---------------------------------------------------------------------------
// accessors
// ---------------------------------------------------------------------------

const Node& Network::node(NodeId id) const {
  SIXG_ASSERT(id.value() < nodes_.size(), "unknown node");
  return nodes_[id.value()];
}

const Link& Network::link(LinkId id) const {
  SIXG_ASSERT(id.value() < links_.size() && link_alive_[id.value()],
              "unknown or removed link");
  return links_[id.value()];
}

std::optional<NodeId> Network::find_node(std::string_view name) const {
  for (const Node& n : nodes_)
    if (n.name == name) return n.id;
  return std::nullopt;
}

std::span<const LinkId> Network::links_of(NodeId n) const {
  SIXG_ASSERT(n.value() < nodes_.size(), "unknown node");
  return adjacency_[n.value()];
}

// ---------------------------------------------------------------------------
// AS-level policy routing (Gao-Rexford)
// ---------------------------------------------------------------------------

std::vector<Network::AsRoute> Network::compute_as_routes_to(AsId dst) const {
  SIXG_ASSERT(dst.value() < ases_.size(), "unknown AS");
  std::vector<AsRoute> routes(ases_.size());
  routes[dst.value()] = AsRoute{RouteSource::kSelf, 0, AsId{}};

  auto better = [this](const AsRoute& candidate, const AsRoute& incumbent) {
    if (candidate.source != incumbent.source)
      return candidate.source < incumbent.source;
    if (candidate.as_hops != incumbent.as_hops)
      return candidate.as_hops < incumbent.as_hops;
    if (!incumbent.next.valid()) return true;
    if (!candidate.next.valid()) return false;
    return ases_[candidate.next.value()].asn <
           ases_[incumbent.next.value()].asn;
  };

  // Phase 1: customer routes propagate upward (exported to providers).
  // BFS by hop count; only ASes holding a self/customer route re-export
  // upward, which is exactly the Gao-Rexford export rule.
  {
    std::queue<AsId> frontier;
    frontier.push(dst);
    while (!frontier.empty()) {
      const AsId x = frontier.front();
      frontier.pop();
      const AsRoute& rx = routes[x.value()];
      if (rx.source > RouteSource::kCustomer) continue;
      for (AsId p : as_adjacency_[x.value()].providers) {
        const AsRoute candidate{RouteSource::kCustomer, rx.as_hops + 1, x};
        if (better(candidate, routes[p.value()])) {
          routes[p.value()] = candidate;
          frontier.push(p);
        }
      }
    }
  }

  // Phase 2: peer routes — an AS exports self/customer routes to peers;
  // the peer does not re-export them to its own peers or providers.
  {
    std::vector<AsRoute> updates = routes;
    for (std::size_t x = 0; x < ases_.size(); ++x) {
      for (AsId y : as_adjacency_[x].peers) {
        const AsRoute& ry = routes[y.value()];
        if (ry.source > RouteSource::kCustomer) continue;
        const AsRoute candidate{RouteSource::kPeer, ry.as_hops + 1, y};
        if (better(candidate, updates[x])) updates[x] = candidate;
      }
    }
    routes = std::move(updates);
  }

  // Phase 3: provider routes propagate downward to customers (any route is
  // exported to customers). Dijkstra-like BFS ordered by hops.
  {
    using Entry = std::pair<std::uint32_t, std::uint32_t>;  // hops, as index
    std::priority_queue<Entry, std::vector<Entry>, std::greater<>> heap;
    for (std::size_t x = 0; x < ases_.size(); ++x)
      if (routes[x].source != RouteSource::kNone)
        heap.emplace(routes[x].as_hops, std::uint32_t(x));
    while (!heap.empty()) {
      const auto [hops, xi] = heap.top();
      heap.pop();
      if (hops > routes[xi].as_hops) continue;  // stale entry
      for (AsId c : as_adjacency_[xi].customers) {
        const AsRoute candidate{RouteSource::kProvider, hops + 1, AsId{xi}};
        if (better(candidate, routes[c.value()])) {
          routes[c.value()] = candidate;
          heap.emplace(hops + 1, c.value());
        }
      }
    }
  }

  return routes;
}

std::vector<AsId> Network::as_path(AsId src, AsId dst) const {
  const std::vector<AsRoute> routes = compute_as_routes_to(dst);
  std::vector<AsId> path;
  AsId cursor = src;
  for (std::size_t guard = 0; guard <= ases_.size(); ++guard) {
    if (routes[cursor.value()].source == RouteSource::kNone) return {};
    path.push_back(cursor);
    if (cursor == dst) return path;
    cursor = routes[cursor.value()].next;
  }
  SIXG_ASSERT(false, "AS route next-pointers form a cycle");
  return {};
}

// ---------------------------------------------------------------------------
// router-level paths
// ---------------------------------------------------------------------------

void Network::finalize_path(Path& path) const {
  path.base_one_way = Duration{};
  path.distance_km = 0.0;
  for (std::size_t i = 0; i < path.links.size(); ++i) {
    const Link& l = link(path.links[i]);
    path.base_one_way += l.propagation() + l.extra_latency;
    path.distance_km += l.length_km;
    // Forwarding cost of every intermediate node (not the endpoints).
    if (i + 1 < path.links.size())
      path.base_one_way += node(path.nodes[i + 1]).processing_delay;
  }
}

Path Network::intra_as_path(NodeId src, NodeId dst) const {
  return layered_path(src, dst, {node(src).as_id});
}

Path Network::layered_path(NodeId src, NodeId dst,
                           const std::vector<AsId>& as_seq) const {
  SIXG_ASSERT(!as_seq.empty(), "empty AS sequence");
  const std::size_t n = nodes_.size();
  const std::size_t layers = as_seq.size();
  const auto state_of = [n](std::size_t layer, std::uint32_t node_index) {
    return layer * n + node_index;
  };

  std::vector<std::int64_t> dist(layers * n, kInfCost);
  std::vector<std::size_t> prev(layers * n);  // previous state
  std::vector<LinkId> via(layers * n);        // link into the state
  using HeapEntry = std::pair<std::int64_t, std::size_t>;  // cost, state
  std::vector<HeapEntry> heap;

  SIXG_ASSERT(node(src).as_id == as_seq.front(),
              "source must be in the first AS of the sequence");
  SIXG_ASSERT(node(dst).as_id == as_seq.back(),
              "destination must be in the last AS of the sequence");

  const std::size_t start = state_of(0, src.value());
  dist[start] = 0;
  heap.emplace_back(0, start);

  const std::size_t goal = state_of(layers - 1, dst.value());

  while (!heap.empty()) {
    std::pop_heap(heap.begin(), heap.end(), std::greater<HeapEntry>{});
    const auto [cost, state] = heap.back();
    heap.pop_back();
    if (cost > dist[state]) continue;
    if (state == goal) break;
    const std::size_t layer = state / n;
    const NodeId u{std::uint32_t(state % n)};

    for (const LinkId lid : adjacency_[u.value()]) {
      const Link& l = links_[lid.value()];
      const NodeId v = (l.a == u) ? l.b : l.a;
      const AsId as_v = nodes_[v.value()].as_id;

      std::size_t next_layer;
      if (l.relation == LinkRelation::kIntraAs) {
        if (as_v != as_seq[layer]) continue;
        next_layer = layer;
      } else {
        if (layer + 1 >= layers) continue;
        if (as_v != as_seq[layer + 1]) continue;
        next_layer = layer + 1;
      }

      // Cost of traversing the link plus forwarding at v. Terminal node
      // processing is excluded by finalize_path; including it here only
      // shifts all candidates equally, so path choice is unaffected.
      const std::int64_t step = (l.propagation() + l.extra_latency +
                                 nodes_[v.value()].processing_delay)
                                    .ns();
      const std::size_t next_state = state_of(next_layer, v.value());
      if (cost + step < dist[next_state]) {
        dist[next_state] = cost + step;
        prev[next_state] = state;
        via[next_state] = lid;
        heap.emplace_back(cost + step, next_state);
        std::push_heap(heap.begin(), heap.end(), std::greater<HeapEntry>{});
      }
    }
  }

  if (dist[goal] == kInfCost) return Path{};

  Path path;
  std::size_t cursor = goal;
  std::vector<LinkId> rev_links;
  std::vector<NodeId> rev_nodes;
  rev_nodes.push_back(dst);
  while (cursor != start) {
    rev_links.push_back(via[cursor]);
    cursor = prev[cursor];
    rev_nodes.push_back(NodeId{std::uint32_t(cursor % n)});
  }
  path.nodes.assign(rev_nodes.rbegin(), rev_nodes.rend());
  path.links.assign(rev_links.rbegin(), rev_links.rend());
  finalize_path(path);
  return path;
}

Path Network::find_path(NodeId src, NodeId dst) const {
  SIXG_ASSERT(src.value() < nodes_.size() && dst.value() < nodes_.size(),
              "unknown node");
  if (src == dst) {
    Path p;
    p.nodes.push_back(src);
    return p;
  }
  const AsId as_src = node(src).as_id;
  const AsId as_dst = node(dst).as_id;
  if (as_src == as_dst) return intra_as_path(src, dst);
  const auto seq = as_path(as_src, as_dst);
  if (seq.empty()) return Path{};
  return layered_path(src, dst, seq);
}

// ---------------------------------------------------------------------------
// latency sampling
// ---------------------------------------------------------------------------

Duration Network::sample_link_queueing(const Link& l, Rng& rng) const {
  // M/M/1-flavoured mean queueing delay that grows with utilisation, plus
  // a rare heavy-tail spike (cross-traffic burst). Core links at moderate
  // load contribute tens of microseconds; saturated links milliseconds.
  // This is the reference sampler CompiledPath::sample_* must byte-match
  // (shared parameter helpers, same fast_log, same draw order).
  const double mean_us = link_queue_mean_us(l.utilization);
  const double u = link_spike_coefficient(l.utilization);
  double sample_us =
      stats::ShiftedExponential{0.0, mean_us}.sample(rng);
  if (rng.chance(0.02)) sample_us += rng.uniform(200.0, 2000.0) * u;
  return Duration::from_micros_f(sample_us);
}

Duration Network::sample_one_way(const Path& path, Rng& rng) const {
  Duration total = path.base_one_way;
  for (LinkId lid : path.links)
    total += sample_link_queueing(link(lid), rng);
  return total;
}

Duration Network::sample_rtt(const Path& path, Rng& rng) const {
  // Forward and reverse directions experience independent queueing.
  return sample_one_way(path, rng) + sample_one_way(path, rng);
}

CompiledPath Network::compile(const Path& path) const {
  CompiledPath cp;
  cp.valid_ = path.valid();
  cp.base_one_way_ = path.base_one_way;
  cp.distance_km_ = path.distance_km;
  cp.links_ = path.links;
  cp.neg_mean_us_.reserve(path.links.size());
  cp.spike_util_.reserve(path.links.size());
  for (const LinkId lid : path.links) {
    const Link& l = link(lid);
    cp.neg_mean_us_.push_back(-link_queue_mean_us(l.utilization));
    cp.spike_util_.push_back(link_spike_coefficient(l.utilization));
  }
  return cp;
}

}  // namespace sixg::topo
