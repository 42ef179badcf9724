#pragma once
// Exposition formats for a MetricsSnapshot.
//
//   * write_prometheus: text exposition.  Plain instrument names emit
//     `name value`; names carrying inline labels (`log_messages{level="warn"}`)
//     are emitted verbatim.  Histograms expand to `<name>_count`,
//     `<name>_sum`, min/max gauges and quantile series
//     (`name{quantile="0.5"}` etc.), merging quantile into existing labels.
//   * write_json: one object with "counters"/"gauges"/"histograms" maps,
//     so bench artifacts (BENCH_obs.json) embed snapshots directly.

#include <iosfwd>

#include "obs/metrics.hpp"

namespace emon::obs {

void write_prometheus(const MetricsSnapshot& snap, std::ostream& os);
void write_json(const MetricsSnapshot& snap, std::ostream& os);

}  // namespace emon::obs
