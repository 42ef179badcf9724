#pragma once
// Test-only reference for billing: the exact double-precision fold that the
// store-backed core::BillingService is checked against.
//
// Per device and network it keeps the record count and the double sum of
// energy_mwh over the records it is fed; the first copy of a (device,
// sequence) wins and later copies are ignored.  Invoices are priced with the
// tariff rules written out here, not through BillingService.  The store
// quantizes energy (store/segment.hpp), so store-backed invoices agree with
// this reference within kEnergyToleranceMwh per record, not bit for bit.

#include <cstdint>
#include <map>
#include <set>
#include <utility>

#include "core/billing.hpp"
#include "core/records.hpp"
#include "store/tsdb.hpp"

namespace emon::reference {

class ReferenceBilling {
 public:
  ReferenceBilling(core::NetworkId home, core::Tariff tariff)
      : home_(std::move(home)), tariff_(tariff) {}

  void ingest(const core::ConsumptionRecord& r) {
    if (!seen_.emplace(r.device_id, r.sequence).second) {
      return;
    }
    store::NetworkUsage& use = usage_[r.device_id][r.network];
    use.records += 1;
    use.energy_mwh += r.energy_mwh;
    total_mwh_ += r.energy_mwh;
  }

  [[nodiscard]] core::Invoice invoice_for(const core::DeviceId& id) const {
    core::Invoice invoice;
    invoice.device_id = id;
    const auto it = usage_.find(id);
    if (it == usage_.end()) {
      return invoice;
    }
    for (const auto& [network, use] : it->second) {
      core::InvoiceLine line;
      line.network = network;
      line.records = use.records;
      line.energy_mwh = use.energy_mwh;
      line.roamed = network != home_;
      const double kwh = use.energy_mwh / 1e6;
      line.cost = kwh * tariff_.home_price_per_kwh *
                  (line.roamed ? tariff_.roaming_multiplier : 1.0);
      invoice.total_energy_mwh += line.energy_mwh;
      invoice.total_cost += line.cost;
      invoice.lines.push_back(line);
    }
    return invoice;
  }

  /// Energy of every counted record, summed in arrival order.
  [[nodiscard]] double total_energy_mwh() const { return total_mwh_; }

 private:
  core::NetworkId home_;
  core::Tariff tariff_;
  std::set<std::pair<core::DeviceId, std::uint64_t>> seen_;
  std::map<core::DeviceId, std::map<core::NetworkId, store::NetworkUsage>>
      usage_;
  double total_mwh_ = 0.0;
};

}  // namespace emon::reference
