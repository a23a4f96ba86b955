#include "src/sim/page_cache.h"

#include <stdexcept>

#include "src/core/weighted_draw.h"

namespace lottery {

PageCache::PageCache(size_t frames, FastRand* rng)
    : frames_(frames), rng_(rng) {
  if (frames == 0) {
    throw std::invalid_argument("PageCache: need at least one frame");
  }
}

void PageCache::RegisterClient(ClientId client, uint64_t tickets) {
  if (!clients_.emplace(client, ClientState{}).second) {
    throw std::invalid_argument("PageCache: duplicate client");
  }
  clients_[client].tickets = tickets;
}

void PageCache::SetTickets(ClientId client, uint64_t tickets) {
  StateOf(client).tickets = tickets;
}

PageCache::ClientState& PageCache::StateOf(ClientId client) {
  const auto it = clients_.find(client);
  if (it == clients_.end()) {
    throw std::invalid_argument("PageCache: unknown client");
  }
  return it->second;
}

PageCache::AccessResult PageCache::Access(ClientId client, PageId page) {
  ClientState& state = StateOf(client);
  AccessResult result;

  const auto hit = state.where.find(page);
  if (hit != state.where.end()) {
    state.lru.erase(hit->second);
    state.lru.push_front(page);
    hit->second = state.lru.begin();
    ++state.hits;
    result.hit = true;
    return result;
  }

  ++state.faults;
  if (frames_in_use_ == frames_) {
    const ClientId victim = PickVictim();
    ClientState& vs = clients_.at(victim);
    const PageId victim_page = vs.lru.back();
    vs.lru.pop_back();
    vs.where.erase(victim_page);
    ++vs.evictions;
    --frames_in_use_;
    result.evicted = true;
    result.victim_client = victim;
    result.victim_page = victim_page;
  }

  state.lru.push_front(page);
  state.where[page] = state.lru.begin();
  ++frames_in_use_;
  return result;
}

PageCache::ClientId PageCache::PickVictim() {
  // Weight_i = (T - t_i) * frames_i over clients holding frames; the
  // combined Section 6.2 criterion. If only one client holds frames it
  // must lose. With two or more holders the weights vanish only when every
  // holder has zero tickets; the draw then weighs frames alone.
  uint64_t total_tickets = 0;
  size_t holders = 0;
  ClientId holder = 0;
  for (const auto& [id, state] : clients_) {
    if (!state.lru.empty()) {
      total_tickets += state.tickets;
      ++holders;
      holder = id;
    }
  }
  if (holders == 0) {
    throw std::logic_error("PageCache::PickVictim: no frames held");
  }
  if (holders == 1) {
    return holder;
  }
  const auto frames = [](const ClientState& state) {
    return static_cast<uint64_t>(state.lru.size());
  };
  auto it = DrawWeighted(
      *rng_, clients_.begin(), clients_.end(), [&](const auto& entry) {
        const ClientState& state = entry.second;
        return state.lru.empty()
                   ? uint64_t{0}
                   : (total_tickets - state.tickets) * frames(state);
      });
  if (it == clients_.end()) {
    it = DrawWeighted(*rng_, clients_.begin(), clients_.end(),
                      [&](const auto& entry) { return frames(entry.second); });
  }
  return it->first;
}

size_t PageCache::FramesHeld(ClientId client) const {
  return const_cast<PageCache*>(this)->StateOf(client).lru.size();
}

uint64_t PageCache::Evictions(ClientId client) const {
  return const_cast<PageCache*>(this)->StateOf(client).evictions;
}

uint64_t PageCache::Hits(ClientId client) const {
  return const_cast<PageCache*>(this)->StateOf(client).hits;
}

uint64_t PageCache::Faults(ClientId client) const {
  return const_cast<PageCache*>(this)->StateOf(client).faults;
}

}  // namespace lottery
