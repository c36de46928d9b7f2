#include <set>
#include <vector>

#include <gtest/gtest.h>

#include "common/rng.h"
#include "memsim/hbm.h"

namespace topick::mem {
namespace {

DramConfig no_refresh_config() {
  DramConfig config;
  config.enable_refresh = false;
  return config;
}

// Runs until all pending transactions are retired; returns the responses.
std::vector<MemResponse> run_to_completion(Hbm& hbm,
                                           std::uint64_t max_cycles = 200000) {
  std::vector<MemResponse> all;
  std::uint64_t start = hbm.cycle();
  while (!hbm.idle()) {
    for (const auto& r : hbm.tick()) all.push_back(r);
    EXPECT_LT(hbm.cycle() - start, max_cycles) << "DRAM model did not drain";
    if (hbm.cycle() - start >= max_cycles) break;
  }
  return all;
}

TEST(AddressMap, SequentialGranulesInterleaveChannels) {
  Hbm hbm(no_refresh_config());
  for (int g = 0; g < 16; ++g) {
    EXPECT_EQ(hbm.channel_of(static_cast<std::uint64_t>(g) * 32), g % 8);
  }
}

TEST(AddressMap, LocalDecodeCoversBanksRowsColumns) {
  const DramConfig config = no_refresh_config();
  Hbm hbm(config);
  // Granule stride of `channels` stays in one channel and walks banks.
  const auto local0 = hbm.local_of(0);
  const auto local1 = hbm.local_of(32ull * 8);
  EXPECT_EQ(local0.bank, 0u);
  EXPECT_EQ(local1.bank, 1u);
  // Walking past all banks increments the column.
  const auto local_col = hbm.local_of(32ull * 8 * 16);
  EXPECT_EQ(local_col.bank, 0u);
  EXPECT_EQ(local_col.column, 1u);
  // Walking past a full row increments the row.
  const auto local_row =
      hbm.local_of(32ull * 8 * 16 * static_cast<std::uint64_t>(config.columns_per_row()));
  EXPECT_EQ(local_row.row, 1u);
  EXPECT_EQ(local_row.column, 0u);
}

TEST(Hbm, SingleReadLatencyIsActPlusCas) {
  const DramConfig config = no_refresh_config();
  Hbm hbm(config);
  ASSERT_TRUE(hbm.try_enqueue(MemRequest{0, 1}));
  std::vector<MemResponse> responses;
  while (responses.empty()) {
    for (const auto& r : hbm.tick()) responses.push_back(r);
    ASSERT_LT(hbm.cycle(), 1000u);
  }
  const auto expected = static_cast<std::uint64_t>(
      config.timing.t_rcd + config.timing.t_cl + config.timing.t_burst);
  EXPECT_NEAR(static_cast<double>(responses[0].ready_cycle),
              static_cast<double>(expected), 2.0);
}

TEST(Hbm, EveryRequestGetsExactlyOneResponse) {
  Hbm hbm(no_refresh_config());
  std::set<std::uint64_t> pending_ids;
  std::uint64_t id = 0;
  for (int i = 0; i < 200; ++i) {
    const MemRequest req{static_cast<std::uint64_t>(i) * 32, id};
    if (hbm.try_enqueue(req)) {
      pending_ids.insert(id);
      ++id;
    }
    for (const auto& r : hbm.tick()) {
      ASSERT_TRUE(pending_ids.count(r.id)) << "duplicate or unknown response";
      pending_ids.erase(r.id);
    }
  }
  run_to_completion(hbm);
  Hbm hbm2(no_refresh_config());  // silence unused warnings path
  (void)hbm2;
}

TEST(Hbm, RowHitsBeatRowMisses) {
  // Same-row streak vs row-thrashing pattern on one channel/bank.
  const DramConfig config = no_refresh_config();
  const std::uint64_t bank_stride = 32ull * 8;          // next bank
  const std::uint64_t row_stride =
      bank_stride * 16 * static_cast<std::uint64_t>(config.columns_per_row());

  Hbm streak(config);
  for (int i = 0; i < 16; ++i) {
    // Same bank, same row, increasing column.
    ASSERT_TRUE(streak.try_enqueue(
        MemRequest{bank_stride * 16 * static_cast<std::uint64_t>(i),
                   static_cast<std::uint64_t>(i)}));
  }
  std::vector<MemResponse> r1;
  while (!streak.idle()) {
    for (const auto& r : streak.tick()) r1.push_back(r);
  }
  const auto streak_cycles = streak.cycle();

  Hbm thrash(config);
  for (int i = 0; i < 16; ++i) {
    // Same bank, alternating rows.
    ASSERT_TRUE(thrash.try_enqueue(
        MemRequest{row_stride * static_cast<std::uint64_t>(i % 2) +
                       bank_stride * 16 * static_cast<std::uint64_t>(i / 2),
                   static_cast<std::uint64_t>(i)}));
  }
  while (!thrash.idle()) thrash.tick();
  const auto thrash_cycles = thrash.cycle();

  EXPECT_LT(streak_cycles, thrash_cycles);
  EXPECT_GT(streak.stats().row_hits, thrash.stats().row_hits);
}

TEST(Hbm, StreamingApproachesPeakBandwidth) {
  const DramConfig config = no_refresh_config();
  Hbm hbm(config);
  const int n = 2048;
  int issued = 0;
  std::uint64_t next_addr = 0;
  while (issued < n || !hbm.idle()) {
    while (issued < n &&
           hbm.try_enqueue(MemRequest{next_addr, static_cast<std::uint64_t>(issued)})) {
      next_addr += 32;
      ++issued;
    }
    hbm.tick();
    ASSERT_LT(hbm.cycle(), 100000u);
  }
  // 2048 granules over 8 channels at 1 granule/cycle/channel: >= 256 cycles.
  const double ideal = static_cast<double>(n) / config.channels;
  EXPECT_GE(static_cast<double>(hbm.cycle()), ideal);
  EXPECT_LE(static_cast<double>(hbm.cycle()), ideal * 1.5 + 100.0);
}

TEST(Hbm, QueueBackpressure) {
  const DramConfig config = no_refresh_config();
  Hbm hbm(config);
  // Flood one channel (same address -> same channel).
  int accepted = 0;
  for (int i = 0; i < 100; ++i) {
    if (hbm.try_enqueue(MemRequest{0, static_cast<std::uint64_t>(i)})) {
      ++accepted;
    }
  }
  EXPECT_EQ(accepted, config.queue_depth);
  EXPECT_EQ(hbm.stats().queue_full_stalls,
            static_cast<std::uint64_t>(100 - config.queue_depth));
  run_to_completion(hbm);
}

TEST(Hbm, StatsAccounting) {
  Hbm hbm(no_refresh_config());
  const int n = 64;
  for (int i = 0; i < n; ++i) {
    ASSERT_TRUE(hbm.try_enqueue(
        MemRequest{static_cast<std::uint64_t>(i) * 32, static_cast<std::uint64_t>(i)}));
    hbm.tick();
  }
  run_to_completion(hbm);
  const auto stats = hbm.stats();
  EXPECT_EQ(stats.requests, static_cast<std::uint64_t>(n));
  EXPECT_EQ(stats.bytes_read, static_cast<std::uint64_t>(n) * 32);
  EXPECT_EQ(stats.row_hits + stats.row_misses, static_cast<std::uint64_t>(n));
}

TEST(Hbm, StreamingEnergyNearHbm2Class) {
  Hbm hbm(no_refresh_config());
  const int n = 4096;
  int issued = 0;
  std::uint64_t addr = 0;
  while (issued < n || !hbm.idle()) {
    while (issued < n &&
           hbm.try_enqueue(MemRequest{addr, static_cast<std::uint64_t>(issued)})) {
      addr += 32;
      ++issued;
    }
    hbm.tick();
  }
  const double pj_per_bit =
      hbm.energy_pj() / (static_cast<double>(n) * 32.0 * 8.0);
  EXPECT_GT(pj_per_bit, 3.0);
  EXPECT_LT(pj_per_bit, 5.0);
}

TEST(Hbm, RefreshAddsLatencyButDrains) {
  DramConfig with_refresh;
  with_refresh.enable_refresh = true;
  Hbm hbm(with_refresh);
  // Run past a refresh interval with sparse traffic.
  std::uint64_t issued = 0;
  for (std::uint64_t c = 0; c < 9000; ++c) {
    if (c % 100 == 0 &&
        hbm.try_enqueue(MemRequest{(c % 64) * 32, issued})) {
      ++issued;
    }
    hbm.tick();
  }
  while (!hbm.idle()) hbm.tick();
  EXPECT_GT(hbm.stats().refreshes, 0u);
  EXPECT_EQ(hbm.stats().requests, issued);
}

TEST(Hbm, RejectsMisalignedRowConfig) {
  DramConfig config;
  config.row_bytes = 1000;  // not a multiple of 32
  EXPECT_THROW(Hbm{config}, std::logic_error);
}

// Configs that would divide by zero in the constructor or hang any driver
// loop are rejected up front; only the Hbm is constructed here.
TEST(Hbm, RejectsDegenerateConfig) {
  for (const int bytes : {0, -32}) {
    DramConfig config;
    config.transaction_bytes = bytes;
    EXPECT_THROW(Hbm{config}, std::logic_error) << bytes;
  }
  for (const int depth : {0, -1}) {
    DramConfig config;
    config.queue_depth = depth;
    EXPECT_THROW(Hbm{config}, std::logic_error) << depth;
  }
  for (const int refi : {0, -1}) {
    DramConfig config;
    config.timing.t_refi = refi;
    EXPECT_THROW(Hbm{config}, std::logic_error) << refi;
    config.enable_refresh = false;  // the interval is never read
    EXPECT_NO_THROW(Hbm{config}) << refi;
  }
  DramConfig always_refreshing;
  always_refreshing.timing.t_rfc = always_refreshing.timing.t_refi;
  EXPECT_THROW(Hbm{always_refreshing}, std::logic_error);
  // A zero burst lets two bursts finish on one cycle; a negative timing
  // field wraps in the unsigned cycle domain.
  for (const int burst : {0, -1}) {
    DramConfig config;
    config.timing.t_burst = burst;
    EXPECT_THROW(Hbm{config}, std::logic_error) << burst;
  }
  for (int DramTiming::*field :
       {&DramTiming::t_rcd, &DramTiming::t_rp, &DramTiming::t_cl,
        &DramTiming::t_ras}) {
    DramConfig config;
    config.timing.*field = -1;
    EXPECT_THROW(Hbm{config}, std::logic_error);
    config.timing.*field = 0;
    EXPECT_NO_THROW(Hbm{config});
  }
}

TEST(Hbm, TraceRecordsEveryCommittedTransaction) {
  Hbm hbm(no_refresh_config());
  hbm.enable_trace(true);
  const int n = 48;
  for (int i = 0; i < n; ++i) {
    ASSERT_TRUE(hbm.try_enqueue(MemRequest{static_cast<std::uint64_t>(i) * 32,
                                           static_cast<std::uint64_t>(i)}));
    hbm.tick();
  }
  run_to_completion(hbm);
  EXPECT_EQ(hbm.trace().size(), static_cast<std::size_t>(n));
  // Channels recorded and cycle stamps are monotone per channel.
  std::uint64_t last_cycle[8] = {};
  for (const auto& entry : hbm.trace()) {
    ASSERT_GE(entry.channel, 0);
    ASSERT_LT(entry.channel, 8);
    ASSERT_GE(entry.cycle, last_cycle[entry.channel]);
    last_cycle[entry.channel] = entry.cycle;
  }
  const auto csv = hbm.trace_csv();
  EXPECT_NE(csv.find("cycle,channel,addr,row_hit"), std::string::npos);
}

// Order-preservation property of the driver the engines use: arrivals are
// offered to try_enqueue in order every cycle, stopping at the first refusal,
// so with queue_depth 1 every commit is FIFO per channel and each channel's
// committed address sequence must equal the arrivals' same-channel
// subsequence — even while the shallow queue turns enqueues away.
TEST(Hbm, SameChannelOrderPreservedUnderQueuePressure) {
  DramConfig config = no_refresh_config();
  config.queue_depth = 1;
  Hbm hbm(config);
  hbm.enable_trace(true);

  // Deterministic pseudo-random arrivals: bursts of same-cycle arrivals
  // hopping rows so row-policy reordering would be visible if it leaked
  // through the FIFO.
  std::vector<MemRequest> arrivals;
  std::uint64_t lcg = 12345;
  for (std::uint64_t k = 0; k < 160; ++k) {
    lcg = lcg * 6364136223846793005ull + 1442695040888963407ull;
    arrivals.push_back(MemRequest{((lcg >> 16) % 4096) * 32, k});
  }
  std::size_t next = 0;
  while (next < arrivals.size() || !hbm.idle()) {
    // Four arrivals become due per cycle.
    while (next < arrivals.size() && next / 4 <= hbm.cycle() &&
           hbm.try_enqueue(arrivals[next])) {
      ++next;
    }
    hbm.tick();
  }

  EXPECT_GT(hbm.stats().queue_full_stalls, 0u)
      << "scenario must actually exercise backpressure";
  ASSERT_EQ(hbm.trace().size(), arrivals.size());
  std::vector<std::vector<std::uint64_t>> expected(hbm.channel_count());
  for (const MemRequest& request : arrivals) {
    expected[static_cast<std::size_t>(hbm.channel_of(request.addr))]
        .push_back(request.addr);
  }
  std::vector<std::vector<std::uint64_t>> committed(hbm.channel_count());
  for (const auto& entry : hbm.trace()) {
    committed[static_cast<std::size_t>(entry.channel)].push_back(entry.addr);
  }
  EXPECT_EQ(committed, expected);
}

// tick() hands back each response on the cycle it completes, and a channel
// retires its bursts in the order it committed them, across refresh, queue
// pressure, a stretched data bus and injected stall windows.
TEST(Hbm, ResponsesRetireInCommitOrder) {
  const ChannelFault degraded{.burst_multiplier = 2.5};
  const ChannelFault stalled{.stall_period = 300, .stall_cycles = 80};
  std::uint64_t seed = 0;
  for (const bool refresh : {false, true}) {
    for (const int depth : {1, 16}) {
      for (const ChannelFault* fault : {static_cast<const ChannelFault*>(nullptr),
                                        &degraded, &stalled}) {
        SCOPED_TRACE(::testing::Message()
                     << "refresh " << refresh << " depth " << depth
                     << " fault " << (fault == &degraded  ? "degraded"
                                      : fault == &stalled ? "stalled"
                                                          : "none"));
        DramConfig config;
        config.enable_refresh = refresh;
        config.queue_depth = depth;
        Hbm hbm(config);
        hbm.set_channel_fault(1, fault);
        hbm.enable_trace(true);

        // Bursty arrivals over a few refresh intervals; a small address
        // space mixes row hits, misses and conflicts.
        Rng rng(++seed);
        std::vector<MemRequest> arrivals;
        std::vector<std::uint64_t> due;
        std::uint64_t cycle = 0;
        for (std::uint64_t id = 0; id < 1200; ++id) {
          if (rng.bernoulli(0.25)) cycle += rng.uniform_index(40);
          arrivals.push_back(MemRequest{rng.uniform_index(1 << 15) * 32, id});
          due.push_back(cycle);
        }

        std::vector<int> seen(arrivals.size(), 0);
        std::vector<std::vector<std::uint64_t>> retired(hbm.channel_count());
        std::size_t next = 0;
        while (next < arrivals.size() || !hbm.idle()) {
          while (next < arrivals.size() && due[next] <= hbm.cycle() &&
                 hbm.try_enqueue(arrivals[next])) {
            ++next;
          }
          const std::uint64_t now = hbm.cycle();
          for (const MemResponse& r : hbm.tick()) {
            ASSERT_LT(r.id, arrivals.size());
            ASSERT_EQ(r.ready_cycle, now);
            ++seen[r.id];
            retired[static_cast<std::size_t>(
                        hbm.channel_of(arrivals[r.id].addr))]
                .push_back(arrivals[r.id].addr);
          }
          ASSERT_LT(hbm.cycle(), 1000000u);
        }

        for (std::size_t id = 0; id < seen.size(); ++id) {
          ASSERT_EQ(seen[id], 1) << "id " << id;
        }
        std::vector<std::vector<std::uint64_t>> committed(hbm.channel_count());
        for (const auto& entry : hbm.trace()) {
          committed[static_cast<std::size_t>(entry.channel)].push_back(
              entry.addr);
        }
        EXPECT_EQ(retired, committed);
        const DramStats stats = hbm.stats();
        EXPECT_EQ(stats.refreshes > 0, refresh);
        EXPECT_EQ(stats.fault_stall_cycles > 0, fault == &stalled);
        if (depth == 1) {
          EXPECT_GT(stats.queue_full_stalls, 0u);
        }
      }
    }
  }
}

TEST(Hbm, TraceDisabledByDefault) {
  Hbm hbm(no_refresh_config());
  ASSERT_TRUE(hbm.try_enqueue(MemRequest{0, 0}));
  run_to_completion(hbm);
  EXPECT_TRUE(hbm.trace().empty());
}

}  // namespace
}  // namespace topick::mem
