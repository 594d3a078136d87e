// A fixed calibration loop that does not link the library. The
// benchmark host is shared, and its speed drifts by 10-30% over minutes;
// the loop, timed between requests in the same process, measures that
// drift so the benchmark can report each timing at a reference speed.
//
// The loop copies the simulator's shape rather than its code: `width`
// threads run rounds of a few hundred dependent loads in a private
// L2-sized table and meet at a std::barrier after each round, as the
// worker pool does after each parallel section. Each thread first walks
// its table once untimed, so what the previous request left in the
// caches does not change the timing.
#pragma once

#include <barrier>
#include <chrono>
#include <cstdint>
#include <thread>
#include <vector>

namespace perfbench {

class Calibration {
 public:
  explicit Calibration(int width) {
    for (int t = 0; t < width; ++t) {
      std::vector<std::uint32_t>& next = tables_.emplace_back(kEntries);
      for (std::uint32_t i = 0; i < kEntries; ++i) next[i] = i;
      // Sattolo's algorithm: a random single cycle, so every load
      // depends on the one before it.
      std::uint64_t s = 0x2545'f491'4f6c'dd1dULL + static_cast<std::uint64_t>(t);
      for (std::uint32_t i = kEntries - 1; i > 0; --i) {
        s ^= s << 13;
        s ^= s >> 7;
        s ^= s << 17;
        std::swap(next[i], next[static_cast<std::uint32_t>(s % i)]);
      }
    }
  }

  /// Seconds for one fixed run of the loop, warm-up excluded.
  double run() {
    const auto width = static_cast<std::ptrdiff_t>(tables_.size());
    std::barrier<> round_end(width);
    std::vector<std::uint32_t> out(tables_.size());
    std::chrono::steady_clock::time_point t0;
    std::vector<std::thread> workers;
    for (std::size_t t = 0; t < tables_.size(); ++t) {
      workers.emplace_back([this, t, &round_end, &out, &t0] {
        const std::vector<std::uint32_t>& next = tables_[t];
        std::uint32_t p = 0;
        for (std::uint32_t i = 0; i < kEntries; ++i) p = next[p];
        round_end.arrive_and_wait();
        if (t == 0) t0 = std::chrono::steady_clock::now();
        round_end.arrive_and_wait();
        for (int r = 0; r < kRounds; ++r) {
          for (int k = 0; k < kLoadsPerRound; ++k) p = next[p];
          round_end.arrive_and_wait();
        }
        out[t] = p;
      });
    }
    for (std::thread& w : workers) w.join();
    const double seconds =
        std::chrono::duration<double>(std::chrono::steady_clock::now() - t0).count();
    for (const std::uint32_t p : out) sink_ = sink_ + p;
    return seconds;
  }

 private:
  static constexpr std::uint32_t kEntries = 1u << 16;  // 256 KiB of uint32
  static constexpr int kRounds = 2000;
  static constexpr int kLoadsPerRound = 500;
  std::vector<std::vector<std::uint32_t>> tables_;
  volatile std::uint32_t sink_ = 0;  // keeps the walks' results observable
};

}  // namespace perfbench
