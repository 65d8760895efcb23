#include "controller/controller.hpp"

#include <algorithm>

#include "common/assert.hpp"

namespace pcmsim {

void MemoryController::RequestRing::push_back(const MemRequest& r) {
  ensures(size_ < slots_.size(), "request queue overflow");
  std::size_t tail = head_ + size_;
  if (tail >= slots_.size()) tail -= slots_.size();
  slots_[tail] = r;
  ++size_;
}

MemoryController::MemoryController(const ControllerConfig& config) : config_(config) {
  expects(config.banks >= 1, "need at least one bank");
  expects(config.read_queue_cap >= 1 && config.write_queue_cap >= 1,
          "bank queues need capacity for at least one request");
  expects(config.write_drain_watermark <= config.write_queue_cap,
          "drain watermark cannot exceed the write queue capacity");
  banks_.reserve(config.banks);
  for (std::uint32_t b = 0; b < config.banks; ++b) {
    banks_.emplace_back(config.read_queue_cap, config.write_queue_cap);
  }
}

std::uint32_t MemoryController::read_service_cycles() const {
  const auto& t = config_.timing;
  return t.t_rdc + t.t_cl + t.burst_length / 2 + t.t_rtp;
}

std::uint32_t MemoryController::write_service_cycles() const {
  const auto& t = config_.timing;
  // The long PCM write (SET dominates) is hidden behind t_rp at precharge.
  return t.t_wl + t.burst_length / 2 + t.t_rp;
}

void MemoryController::pump(Bank& bank, std::uint64_t now) {
  // Service whatever the bank can start before `now`. Reads first; writes
  // drain when no read is pending or when the write queue passes the
  // watermark (at which point they block reads — the stall the 32-entry
  // buffer exists to avoid).
  while (true) {
    const bool force_writes = bank.writes.size() >= config_.write_drain_watermark;
    if (!bank.reads.empty() && !force_writes) {
      const MemRequest req = bank.reads.front();
      const std::uint64_t start = std::max(bank.free_at, req.arrival_cycle);
      if (start > now) break;
      bank.reads.pop_front();
      bank.free_at = start + read_service_cycles();
      busy_cycles_ += read_service_cycles();
      const double decomp =
          static_cast<double>(req.decompression_cpu_cycles) *
          (static_cast<double>(config_.timing.clock_mhz) / 1000.0 / config_.cpu_ghz);
      read_latency_.add(static_cast<double>(bank.free_at - req.arrival_cycle) + decomp);
      continue;
    }
    if (!bank.writes.empty() && (bank.reads.empty() || force_writes)) {
      const MemRequest req = bank.writes.front();
      const std::uint64_t start = std::max(bank.free_at, req.arrival_cycle);
      if (start > now) break;
      bank.writes.pop_front();
      bank.free_at = start + write_service_cycles();
      busy_cycles_ += write_service_cycles();
      write_latency_.add(static_cast<double>(bank.free_at - req.arrival_cycle));
      if (force_writes && !bank.reads.empty()) ++read_stalls_;
      continue;
    }
    break;
  }
}

void MemoryController::submit(const MemRequest& request) {
  expects(!finished_, "submit after finish(): the controller is sealed");
  expects(request.arrival_cycle >= last_arrival_,
          "requests must arrive in non-decreasing cycle order");
  expects(request.bank < config_.banks, "bank out of range");
  last_arrival_ = request.arrival_cycle;
  Bank& bank = banks_[request.bank];
  pump(bank, request.arrival_cycle);
  if (request.is_read) {
    // A full read queue back-pressures the core; model as an arrival delay.
    MemRequest r = request;
    while (bank.reads.size() >= config_.read_queue_cap) {
      pump(bank, bank.free_at);
      r.arrival_cycle = std::max(r.arrival_cycle, bank.free_at);
    }
    bank.reads.push_back(r);
  } else {
    MemRequest w = request;
    while (bank.writes.size() >= config_.write_queue_cap) {
      pump(bank, bank.free_at);
      w.arrival_cycle = std::max(w.arrival_cycle, bank.free_at);
    }
    bank.writes.push_back(w);
  }
  pump(bank, request.arrival_cycle);
}

void MemoryController::finish() {
  for (auto& bank : banks_) {
    while (!bank.reads.empty() || !bank.writes.empty()) {
      pump(bank, bank.free_at + 1'000'000);
    }
    drained_at_ = std::max(drained_at_, bank.free_at);
  }
  finished_ = true;
}

}  // namespace pcmsim
