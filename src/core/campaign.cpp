#include "core/campaign.hpp"

#include <algorithm>

namespace sixg::core {

std::size_t Campaign::chunk_for(std::size_t jobs, unsigned threads) {
  if (threads <= 1 || jobs <= threads) return 1;
  // ~4 chunks per worker balances scheduling overhead against tail
  // imbalance when job costs vary across the grid.
  return std::max<std::size_t>(1, jobs / (std::size_t(threads) * 4));
}

}  // namespace sixg::core
