#include "net/transport.hpp"

#include "sim/trace.hpp"

namespace emon::net {

void Transport::bind_trace(sim::Trace* trace,
                           const std::string& series_prefix) {
  trace_ = trace;
  if (trace_ != nullptr) {
    tx_series_ = trace_->intern(series_prefix + ".tx_bytes");
    rx_series_ = trace_->intern(series_prefix + ".rx_bytes");
  }
}

void Transport::note_sent(sim::SimTime now, std::size_t bytes) {
  ++tstats_.frames_sent;
  tstats_.bytes_sent += bytes;
  if (trace_ != nullptr) {
    trace_->append(tx_series_, now, static_cast<double>(bytes));
  }
}

void Transport::note_delivered(sim::SimTime now, std::size_t bytes) {
  ++tstats_.frames_delivered;
  tstats_.bytes_delivered += bytes;
  if (trace_ != nullptr) {
    trace_->append(rx_series_, now, static_cast<double>(bytes));
  }
}

}  // namespace emon::net
