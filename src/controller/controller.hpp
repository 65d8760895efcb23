// DDR3-style PCM memory-controller timing model (Table II), used for the
// Section V-B performance-overhead analysis.
//
// Per-bank 8-entry read and 32-entry write queues; reads have priority and
// writes drain opportunistically (or forcibly at a high watermark, stalling
// reads, as in write-queue-based PCM controllers). Decompression sits on the
// read critical path: +1 CPU cycle for BDI images, +5 for FPC (Table I),
// converted into controller cycles at the configured clock ratio.
#pragma once

#include <cstdint>
#include <vector>

#include "common/stats.hpp"
#include "pcm/config.hpp"

namespace pcmsim {

struct ControllerConfig {
  PcmTimingConfig timing;
  std::uint32_t banks = 8;            ///< 2 channels x 1 rank x 4 banks
  std::size_t read_queue_cap = 8;     ///< per bank (Table II)
  std::size_t write_queue_cap = 32;   ///< per bank
  std::size_t write_drain_watermark = 28;
  double cpu_ghz = 2.5;               ///< CPU clock for decompression latency
};

/// One memory transaction presented to the controller.
struct MemRequest {
  std::uint64_t arrival_cycle = 0;  ///< controller clock
  bool is_read = true;
  std::uint32_t bank = 0;
  std::uint32_t decompression_cpu_cycles = 0;  ///< 0 raw, 1 BDI, 5 FPC
};

/// Cycle-level queueing simulation over a request stream (arrival order).
class MemoryController {
 public:
  explicit MemoryController(const ControllerConfig& config);

  /// Presents one request. Preconditions (ContractViolation on breach, the
  /// queueing state is never silently corrupted): arrival cycles are
  /// non-decreasing across the whole stream, the bank index is in range, and
  /// the controller has not been finish()ed.
  void submit(const MemRequest& request);

  /// Drains everything still queued. After finish() the controller is a
  /// sealed report: further submits throw ContractViolation.
  void finish();

  /// Average read latency in controller cycles (queueing + service + decomp).
  [[nodiscard]] const RunningStat& read_latency() const { return read_latency_; }
  [[nodiscard]] const RunningStat& write_latency() const { return write_latency_; }
  [[nodiscard]] std::uint64_t read_stalls() const { return read_stalls_; }

  /// Cycles any bank spent servicing bursts (sum over banks). With the drain
  /// cycle below this yields modeled utilization: busy / (drained * banks).
  [[nodiscard]] std::uint64_t busy_cycles() const { return busy_cycles_; }
  /// Cycle at which the last bank went idle; valid after finish().
  [[nodiscard]] std::uint64_t drained_at() const { return drained_at_; }

  /// Service time of a read/write burst in controller cycles.
  [[nodiscard]] std::uint32_t read_service_cycles() const;
  [[nodiscard]] std::uint32_t write_service_cycles() const;

 private:
  /// FIFO of at most `cap` requests in storage sized once at construction:
  /// submit() never queues past a bank's cap, so the request path never
  /// touches the heap.
  class RequestRing {
   public:
    explicit RequestRing(std::size_t cap) : slots_(cap) {}
    [[nodiscard]] bool empty() const { return size_ == 0; }
    [[nodiscard]] std::size_t size() const { return size_; }
    [[nodiscard]] const MemRequest& front() const { return slots_[head_]; }
    void pop_front() {
      head_ = head_ + 1 == slots_.size() ? 0 : head_ + 1;
      --size_;
    }
    void push_back(const MemRequest& r);

   private:
    std::vector<MemRequest> slots_;
    std::size_t head_ = 0;
    std::size_t size_ = 0;
  };

  struct Bank {
    Bank(std::size_t read_cap, std::size_t write_cap) : reads(read_cap), writes(write_cap) {}
    std::uint64_t free_at = 0;
    RequestRing reads;
    RequestRing writes;
  };

  void pump(Bank& bank, std::uint64_t now);

  ControllerConfig config_;
  std::vector<Bank> banks_;
  RunningStat read_latency_;
  RunningStat write_latency_;
  std::uint64_t read_stalls_ = 0;
  std::uint64_t last_arrival_ = 0;
  std::uint64_t busy_cycles_ = 0;
  std::uint64_t drained_at_ = 0;
  bool finished_ = false;
};

}  // namespace pcmsim
