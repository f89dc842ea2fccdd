#include "net/network.h"

#include <cassert>
#include <utility>

#include "common/log.h"

namespace faastcc::net {
namespace {

uint64_t pair_key(Address a, Address b) {
  if (a > b) std::swap(a, b);
  return (static_cast<uint64_t>(a) << 32) | b;
}

uint64_t link_key(Address from, Address to) {
  return (static_cast<uint64_t>(from) << 32) | to;
}

}  // namespace

void Network::register_endpoint(Address addr, Handler handler) {
  assert(endpoints_.find(addr) == endpoints_.end() &&
         "endpoint registered twice");
  endpoints_.emplace(addr, std::move(handler));
}

void Network::colocate(Address a, Address b) {
  colocated_[pair_key(a, b)] = true;
}

bool Network::is_local(Address a, Address b) const {
  return a == b || colocated_.count(pair_key(a, b)) != 0;
}

void Network::set_faults(FaultParams faults, Rng fault_rng) {
  faults_enabled_ = true;
  faults_ = std::move(faults);
  fault_rng_ = fault_rng;
  default_rpc_timeout_ = faults_.rpc_timeout;
}

void Network::set_link_loss(Address from, Address to, double p) {
  if (p < 0) {
    link_loss_.erase(link_key(from, to));
  } else {
    link_loss_[link_key(from, to)] = p;
  }
}

double Network::link_loss(Address from, Address to) const {
  auto it = link_loss_.find(link_key(from, to));
  return it != link_loss_.end() ? it->second : faults_.loss_prob;
}

bool Network::crashed_at(Address a, SimTime t) const {
  for (const CrashWindow& w : faults_.crashes) {
    if (w.addr == a && t >= w.from && t < w.until) return true;
  }
  return false;
}

Duration Network::delivery_delay(bool local, size_t bytes) {
  if (local) {
    return params_.local_delivery;
  }
  const auto serialization = static_cast<Duration>(
      static_cast<double>(bytes) / params_.bandwidth_bytes_per_us);
  const Duration jitter =
      params_.jitter > 0
          ? static_cast<Duration>(rng_.next_below(
                static_cast<uint64_t>(params_.jitter)))
          : 0;
  return params_.base_latency + jitter + serialization;
}

struct Network::InFlight {
  Network* net;
  Message m;
};

void Network::run_delivery(void* ctx) {
  auto* rec = static_cast<InFlight*>(ctx);
  Network* net = rec->net;
  Message m = std::move(rec->m);
  delete rec;
  net->dispatch(std::move(m));
}

void Network::drop_delivery(void* ctx) {
  // The loop is being destroyed with the message still queued; the
  // Network may already be gone, so only the record and payload are freed.
  delete static_cast<InFlight*>(ctx);
}

void Network::deliver(Message m, Duration delay) {
  loop_.schedule_event_at(loop_.now() + delay, &Network::run_delivery,
                          &Network::drop_delivery,
                          new InFlight{this, std::move(m)});
}

void Network::dispatch(Message m) {
  if (faults_enabled_ && crashed_at(m.to, loop_.now())) {
    // Receiver is down at delivery time: the message is lost, even over
    // IPC (a crashed process receives nothing).
    faults_crash_dropped_.inc();
    loop_.buffer_pool().release(std::move(m.payload));
    return;
  }
  auto it = endpoints_.find(m.to);
  if (it == endpoints_.end()) {
    messages_dropped_.inc();
    LOG_DEBUG("dropping message to unregistered address " << m.to);
    loop_.buffer_pool().release(std::move(m.payload));
    return;
  }
  it->second(std::move(m));
}

void Network::send(Message m) {
  messages_sent_.inc();
  bytes_sent_.inc(m.wire_size());
  const bool local = is_local(m.from, m.to);
  if (faults_enabled_) {
    if (crashed_at(m.from, loop_.now())) {
      faults_crash_dropped_.inc();
      return;
    }
    // Loss, duplication and spikes model the shared fabric; same-node IPC
    // is a memory queue and stays reliable.
    if (!local) {
      const double loss = link_loss(m.from, m.to);
      if (loss > 0 && fault_rng_.next_bool(loss)) {
        faults_lost_.inc();
        loop_.buffer_pool().release(std::move(m.payload));
        return;
      }
      Duration extra = 0;
      if (faults_.delay_spike_prob > 0 &&
          fault_rng_.next_bool(faults_.delay_spike_prob)) {
        faults_delay_spikes_.inc();
        extra = faults_.delay_spike;
      }
      const bool dup =
          faults_.dup_prob > 0 && fault_rng_.next_bool(faults_.dup_prob);
      if (dup) {
        faults_duplicated_.inc();
        Message copy = m;
        // The copy draws its own jitter, so the two deliveries interleave
        // arbitrarily with other traffic.
        const Duration copy_delay =
            delivery_delay(local, copy.wire_size()) + extra;
        deliver(std::move(copy), copy_delay);
      }
      const Duration delay = delivery_delay(local, m.wire_size()) + extra;
      deliver(std::move(m), delay);
      return;
    }
  }
  const Duration delay = delivery_delay(local, m.wire_size());
  deliver(std::move(m), delay);
}

}  // namespace faastcc::net
