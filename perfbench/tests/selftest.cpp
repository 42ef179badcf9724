// The benchmark's own tests: generator determinism and seed sensitivity,
// nearest-rank percentiles and the ten-beyond rule, due-time accounting
// against a stalled consumer, the close-due index behind push_delay, and
// the measured workload-property shares.
//
// Run: python3 perfbench/run.py --self-test   (or the built
// perfbench_selftest binary).  Exits non-zero on any failure.

#include <chrono>
#include <cmath>
#include <iostream>
#include <map>
#include <optional>
#include <thread>

#include "core/protocol.hpp"
#include "gen.hpp"
#include "stats.hpp"
#include "store/rollup.hpp"
#include "store/tsdb.hpp"
#include "workloads.hpp"

namespace {

int failures = 0;

#define EXPECT(cond)                                                   \
  do {                                                                 \
    if (!(cond)) {                                                     \
      ++failures;                                                      \
      std::cerr << __FILE__ << ':' << __LINE__ << ": EXPECT(" #cond ")" \
                << " failed\n";                                        \
    }                                                                  \
  } while (0)

pb::PopulationSpec small_spec(std::uint64_t seed) {
  pb::PopulationSpec spec;
  spec.devices = 800;
  spec.networks = 16;
  spec.seed = seed;
  return spec;
}

void test_generator_determinism() {
  const pb::Population a(small_spec(7));
  const pb::Population b(small_spec(7));
  const pb::Population c(small_spec(8));
  const auto fa = pb::generate(a, 0, 4);
  const auto fb = pb::generate(b, 0, 4);
  const auto fc = pb::generate(c, 0, 4);
  EXPECT(pb::digest(fa) == pb::digest(fb));
  EXPECT(pb::digest(fa) != pb::digest(fc));
  // Any second regenerates on its own, identically.
  std::vector<pb::Frame> third;
  a.frames_for_second(3, third);
  const auto later = pb::generate(a, 3, 1);
  EXPECT(pb::digest(third) == pb::digest(later));
  // sent_records() regenerates exactly the records a device's frames carry,
  // retransmits excluded, in send order.
  std::map<std::uint32_t, std::vector<emon::core::ConsumptionRecord>> decoded;
  for (const pb::Frame& f : fa) {
    auto msg = emon::core::protocol::decode_any(f.bytes);
    EXPECT(msg.ok());
    if (!msg.ok()) {
      continue;
    }
    const auto& report = std::get<emon::core::Report>(msg.value());
    EXPECT(report.records.size() == f.records);
    if (!f.duplicate) {
      auto& list = decoded[f.device];
      list.insert(list.end(), report.records.begin(), report.records.end());
    }
  }
  for (std::size_t d = 0; d < a.size(); d += 7) {
    EXPECT(a.sent_records(d, 4) == decoded[static_cast<std::uint32_t>(d)]);
  }
}

void test_percentiles() {
  std::vector<double> v;
  for (int i = 100; i >= 1; --i) {
    v.push_back(i);
  }
  EXPECT(pb::percentile(v, 0.5) == 50.0);
  EXPECT(pb::percentile(v, 0.95) == 95.0);
  EXPECT(pb::percentile(v, 0.99) == 99.0);
  EXPECT(pb::percentile(v, 1.0) == 100.0);
  EXPECT(pb::percentile(v, 0.001) == 1.0);
  std::vector<double> three{3.0, 1.0, 2.0};
  EXPECT(pb::percentile(three, 0.5) == 2.0);
  // Ten samples beyond: p99 needs 1000 samples, p95 needs 200.
  EXPECT(pb::samples_beyond(1000, 0.99) == 10);
  EXPECT(pb::percentile_supported(1000, 0.99));
  EXPECT(!pb::percentile_supported(999, 0.99));
  EXPECT(pb::percentile_supported(200, 0.95));
  EXPECT(!pb::percentile_supported(199, 0.95));
  EXPECT(pb::percentile_supported(20, 0.5));
  EXPECT(!pb::percentile_supported(19, 0.5));
  bool threw = false;
  try {
    std::vector<double> empty;
    (void)pb::percentile(empty, 0.5);
  } catch (const std::invalid_argument&) {
    threw = true;
  }
  EXPECT(threw);
}

void test_due_time_accounting() {
  // 60 items due 1 ms apart; the consumer stalls 30 ms on item 5.  Open-loop
  // accounting dates every item from its due time, so the items queued
  // behind the stall carry the wait, and the loop catches up after it.
  const pb::DueFn due = [](std::size_t i) -> std::optional<std::int64_t> {
    return i < 60 ? std::optional(static_cast<std::int64_t>(i) * 1'000'000)
                  : std::nullopt;
  };
  const std::int64_t start = pb::now_ns() + 5'000'000;
  const auto times = pb::run_open_loop(due, start, 0, [](std::size_t i) {
    if (i == 5) {
      std::this_thread::sleep_for(std::chrono::milliseconds(30));
    }
  });
  EXPECT(times.start_late_ns.size() == 60 && times.done_late_ns.size() == 60);
  EXPECT(times.done_late_ns[5] >= 30'000'000);
  // Item 6 was due 1 ms after item 5 started; it waited out the stall.
  EXPECT(times.start_late_ns[6] >= 28'000'000);
  // Lateness falls by ~1 ms per item behind the stall.
  EXPECT(times.start_late_ns[6] > times.start_late_ns[20]);
  EXPECT(times.start_late_ns[20] >= 14'000'000);
  // Well after the stall the loop is back on schedule.
  EXPECT(times.start_late_ns[55] < 15'000'000);
  // Same with a tick: items are sent at the tick at/after their due time.
  const std::int64_t start2 = pb::now_ns() + 5'000'000;
  const auto ticked =
      pb::run_open_loop(due, start2, 4'000'000, [](std::size_t) {});
  EXPECT(ticked.start_late_ns[1] >= 2'000'000);  // due 1 ms, sent at 4 ms
}

void test_close_index() {
  // Watermark 2 before the first frame; frame i is added at time 100 + i.
  pb::CloseIndex index(2);
  const std::int64_t ts[] = {5, 3, 10, 10, 20};
  for (int i = 0; i < 5; ++i) {
    index.add(ts[i], 100 + i);
  }
  EXPECT(index.first_reaching(2) == pb::CloseIndex::npos);  // before start
  EXPECT(index.first_reaching(4) == 100);
  EXPECT(index.first_reaching(5) == 100);
  EXPECT(index.first_reaching(6) == 102);
  EXPECT(index.first_reaching(10) == 102);
  EXPECT(index.first_reaching(11) == 104);
  EXPECT(index.first_reaching(21) == pb::CloseIndex::npos);

  // Against the library: ingest frame by frame, drain after each, and the
  // frame after which a window first appears is the index's answer.
  const pb::Population pop(small_spec(3));
  const std::vector<pb::Frame> gen = pb::generate(pop, 0, 5);
  pb::CloseIndex real;
  for (std::size_t i = 0; i < gen.size(); ++i) {
    real.add(gen[i].max_ts_ns, static_cast<std::int64_t>(i));
  }
  emon::store::Tsdb db;
  emon::store::RollupEngine rollups{db};
  db.set_ingest_hook(&rollups);
  const auto specs = pb::rollup_set(pop);
  std::vector<std::uint64_t> ids;
  for (const auto& s : specs) {
    ids.push_back(rollups.register_rollup(s));
  }
  std::size_t compared = 0;
  for (std::size_t i = 0; i < gen.size(); ++i) {
    auto msg = emon::core::protocol::decode_any(gen[i].bytes);
    EXPECT(msg.ok());
    if (!msg.ok()) {
      continue;
    }
    for (const auto& r : std::get<emon::core::Report>(msg.value()).records) {
      (void)db.ingest(r);
    }
    for (std::size_t k = 0; k < ids.size(); ++k) {
      for (const auto& w : rollups.drain(ids[k])) {
        if (w.t1_ns <= pb::kBaseNs) {
          continue;  // backlog-era windows close on the very first frames
        }
        EXPECT(real.first_reaching(w.t1_ns + specs[k].lateness_ns) ==
               static_cast<std::int64_t>(i));
        ++compared;
      }
    }
  }
  EXPECT(compared >= 3 * specs.size());
  db.set_ingest_hook(nullptr);
}

void test_workload_shares() {
  const pb::Population pop(small_spec(11));
  // 20 event-seconds cover every roamer's 16 s roaming period.
  const auto frames = pb::generate(pop, 0, 20);
  pb::Tally sent;
  for (const pb::Frame& f : frames) {
    sent.add(f);
  }
  const auto share = [](std::uint64_t a, std::uint64_t b) {
    return static_cast<double>(a) / static_cast<double>(b);
  };
  EXPECT(std::abs(sent.roamer_share(pop.size()) - 1.0 / 8.0) < 1e-9);
  EXPECT(std::abs(share(sent.offline_records, sent.unique_records) - 0.2) <
         0.01);
  EXPECT(std::abs(share(sent.duplicate_frames, sent.frames) - 0.01) < 0.004);
  const double late = share(sent.late_records, sent.unique_records);
  EXPECT(late > 0.01 && late < 0.05);
  EXPECT(sent.unique_records < sent.records);
  // Every retransmit follows its original with identical bytes.
  std::map<std::uint64_t, std::size_t> first_seen;
  for (std::size_t i = 0; i < frames.size(); ++i) {
    const std::uint64_t key = pb::digest({frames[i]});
    if (!frames[i].duplicate) {
      first_seen.emplace(key, i);
    } else {
      const auto it = first_seen.find(key);
      EXPECT(it != first_seen.end() && it->second < i);
    }
  }
}

}  // namespace

int main() {
  test_generator_determinism();
  test_percentiles();
  test_due_time_accounting();
  test_close_index();
  test_workload_shares();
  if (failures != 0) {
    std::cerr << failures << " check(s) failed\n";
    return 1;
  }
  std::cout << "perfbench self-tests passed\n";
  return 0;
}
