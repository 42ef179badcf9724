// Microbenchmarks for the simulation and protocol substrates: event kernel
// throughput, MQTT topic matching and dispatch, record serialization,
// envelope seal/decode throughput with per-message byte overhead, and
// whole-testbed simulation rate (simulated seconds per wall second).

#include <benchmark/benchmark.h>

#include "core/protocol.hpp"
#include "core/records.hpp"
#include "util/log.hpp"
#include "core/scenario.hpp"
#include "net/mqtt.hpp"
#include "sim/kernel.hpp"

namespace {

using namespace emon;

// Benchmarks spin up testbeds whose runs end mid-handshake; silence the
// resulting (expected) verification warnings.
const bool g_quiet_logs = [] {
  util::LogConfig::set_level(util::LogLevel::kError);
  return true;
}();

void BM_KernelScheduleRun(benchmark::State& state) {
  for (auto _ : state) {
    sim::Kernel kernel;
    for (int i = 0; i < 1000; ++i) {
      kernel.schedule_at(sim::SimTime{i}, [] {});
    }
    benchmark::DoNotOptimize(kernel.run());
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          1000);
}
BENCHMARK(BM_KernelScheduleRun);

void BM_KernelCancel(benchmark::State& state) {
  for (auto _ : state) {
    sim::Kernel kernel;
    std::vector<sim::EventId> ids;
    ids.reserve(1000);
    for (int i = 0; i < 1000; ++i) {
      ids.push_back(kernel.schedule_at(sim::SimTime{i}, [] {}));
    }
    for (const auto id : ids) {
      kernel.cancel(id);
    }
    benchmark::DoNotOptimize(kernel.run());
  }
}
BENCHMARK(BM_KernelCancel);

void BM_TopicMatch(benchmark::State& state) {
  const std::string filter = "emon/report/+";
  const std::string topic = "emon/report/dev-42";
  for (auto _ : state) {
    benchmark::DoNotOptimize(net::topic_matches(filter, topic));
  }
}
BENCHMARK(BM_TopicMatch);

void BM_TopicMatchDeepWildcard(benchmark::State& state) {
  const std::string filter = "a/+/c/+/e/#";
  const std::string topic = "a/b/c/d/e/f/g/h";
  for (auto _ : state) {
    benchmark::DoNotOptimize(net::topic_matches(filter, topic));
  }
}
BENCHMARK(BM_TopicMatchDeepWildcard);

void BM_RecordSerializeRoundTrip(benchmark::State& state) {
  core::ConsumptionRecord record;
  record.device_id = "dev-1";
  record.sequence = 12345;
  record.timestamp_ns = 987654321;
  record.interval_ns = 100000000;
  record.current_ma = 123.456;
  record.bus_voltage_mv = 4998.0;
  record.energy_mwh = 0.0171;
  record.network = "wan-1";
  for (auto _ : state) {
    auto bytes = core::serialize_record(record);
    auto back = core::deserialize_record(bytes);
    benchmark::DoNotOptimize(back);
  }
}
BENCHMARK(BM_RecordSerializeRoundTrip);

void BM_ReportBatchSerialize(benchmark::State& state) {
  std::vector<core::ConsumptionRecord> records(
      static_cast<std::size_t>(state.range(0)));
  std::uint64_t seq = 0;
  for (auto& r : records) {
    r.device_id = "dev-1";
    r.sequence = seq++;
    r.network = "wan-1";
  }
  for (auto _ : state) {
    auto bytes = core::serialize_records(records);
    benchmark::DoNotOptimize(bytes);
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          state.range(0));
}
BENCHMARK(BM_ReportBatchSerialize)->Arg(1)->Arg(64)->Arg(256);

// -- Envelope framing (core/protocol.hpp) -------------------------------------

core::ConsumptionRecord bench_record(std::uint64_t seq) {
  core::ConsumptionRecord r;
  r.device_id = "dev-1";
  r.sequence = seq;
  r.timestamp_ns = 987654321;
  r.interval_ns = 100000000;
  r.current_ma = 123.456;
  r.bus_voltage_mv = 4998.0;
  r.energy_mwh = 0.0171;
  r.network = "wan-1";
  return r;
}

core::Report bench_report(std::size_t records) {
  core::Report report;
  report.device_id = "dev-1";
  for (std::size_t i = 0; i < records; ++i) {
    report.records.push_back(bench_record(i + 1));
  }
  return report;
}

void BM_EnvelopeSealReport(benchmark::State& state) {
  const auto report = bench_report(static_cast<std::size_t>(state.range(0)));
  std::size_t frame_bytes = 0;
  std::size_t payload_bytes = 0;
  for (auto _ : state) {
    auto frame = core::protocol::seal(report);
    frame_bytes = frame.size();
    payload_bytes = frame.size() - core::protocol::kHeaderSize;
    benchmark::DoNotOptimize(frame);
  }
  state.SetBytesProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(frame_bytes));
  state.counters["frame_bytes"] = static_cast<double>(frame_bytes);
  state.counters["overhead_bytes"] =
      static_cast<double>(frame_bytes - payload_bytes);
  state.counters["overhead_pct"] =
      100.0 * static_cast<double>(frame_bytes - payload_bytes) /
      static_cast<double>(frame_bytes);
}
BENCHMARK(BM_EnvelopeSealReport)->Arg(1)->Arg(64)->Arg(256);

void BM_EnvelopeDecodeReport(benchmark::State& state) {
  const auto frame = core::protocol::seal(
      bench_report(static_cast<std::size_t>(state.range(0))));
  for (auto _ : state) {
    auto decoded = core::protocol::decode_any(frame);
    benchmark::DoNotOptimize(decoded);
  }
  state.SetBytesProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(frame.size()));
}
BENCHMARK(BM_EnvelopeDecodeReport)->Arg(1)->Arg(64)->Arg(256);

void BM_EnvelopeSealPush(benchmark::State& state) {
  // A subscription push with one per-device row per device (the widest push
  // a dashboard can ask for); items are rows.
  core::RollupPush push;
  push.subscription_id = 1;
  push.t1_ns = 1'000'000'000;
  push.device_count = static_cast<std::uint64_t>(state.range(0));
  push.merged.count = 640;
  push.breakdown = {{"wan-0", 320, 1.5}, {"wan-1", 320, 2.5}};
  for (std::int64_t i = 0; i < state.range(0); ++i) {
    core::WireAggregate row;
    row.count = 10;
    row.avg_current_ma = 123.456;
    row.sum_energy_mwh = 0.0171;
    push.per_device.push_back({"dev-" + std::to_string(i), row});
  }
  for (auto _ : state) {
    auto frame = core::protocol::seal(push);
    benchmark::DoNotOptimize(frame);
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          state.range(0));
}
BENCHMARK(BM_EnvelopeSealPush)->Arg(64);

void BM_EnvelopeRoundTripCtrl(benchmark::State& state) {
  // The smallest common frame: header overhead dominates here.
  core::CtrlMessage ctrl;
  ctrl.type = core::CtrlType::kReportAck;
  ctrl.device_id = "dev-1";
  ctrl.ack_sequence = 42;
  std::size_t frame_bytes = 0;
  for (auto _ : state) {
    auto frame = core::protocol::seal(ctrl);
    frame_bytes = frame.size();
    auto decoded = core::protocol::decode_any(frame);
    benchmark::DoNotOptimize(decoded);
  }
  state.counters["frame_bytes"] = static_cast<double>(frame_bytes);
  state.counters["overhead_bytes"] =
      static_cast<double>(core::protocol::kHeaderSize);
}
BENCHMARK(BM_EnvelopeRoundTripCtrl);

void BM_EnvelopeRejectGarbage(benchmark::State& state) {
  // Fast-path rejection cost for a frame that fails the magic check.
  std::vector<std::uint8_t> garbage(64, 0xAB);
  for (auto _ : state) {
    auto decoded = core::protocol::decode_any(
        std::span<const std::uint8_t>(garbage.data(), garbage.size()));
    benchmark::DoNotOptimize(decoded);
  }
}
BENCHMARK(BM_EnvelopeRejectGarbage);

void BM_TestbedSimulationRate(benchmark::State& state) {
  // Simulated seconds per wall second for the full Figure 4 testbed
  // (2 networks x 2 devices at 10 Hz reporting).
  for (auto _ : state) {
    core::Testbed bed{core::paper_figure4(/*seed=*/1)};
    bed.start();
    bed.run_for(sim::seconds(10));
    benchmark::DoNotOptimize(bed.kernel().executed());
  }
  state.counters["sim_s_per_iter"] = 10;
}
BENCHMARK(BM_TestbedSimulationRate)->Unit(benchmark::kMillisecond);

void BM_TestbedScaling(benchmark::State& state) {
  const auto networks = static_cast<std::size_t>(state.range(0));
  for (auto _ : state) {
    core::Testbed bed{core::FleetBuilder{}
                          .name("scaling")
                          .networks(networks, 4)
                          .spacing_m(200.0)
                          .seed(1)
                          .spec()};
    bed.start();
    bed.run_for(sim::seconds(5));
    benchmark::DoNotOptimize(bed.kernel().executed());
  }
  state.counters["devices"] =
      static_cast<double>(networks) * 4.0;
}
BENCHMARK(BM_TestbedScaling)->Arg(1)->Arg(2)->Arg(4)->Arg(8)
    ->Unit(benchmark::kMillisecond);

}  // namespace
