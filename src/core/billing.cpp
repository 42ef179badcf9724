#include "core/billing.hpp"

#include <algorithm>

#include "util/bytes.hpp"

namespace emon::core {

namespace {
/// The usage of a device with nothing to bill.
const std::map<NetworkId, store::NetworkUsage> kNoUsage;
}  // namespace

BillingService::BillingService(NetworkId home_network, Tariff tariff,
                               const store::QueryEngine& engine)
    : home_(std::move(home_network)), tariff_(tariff), engine_(&engine) {}

void BillingService::mark_billable(const DeviceId& id, std::int64_t from_ns) {
  if (billable_.try_emplace(id, from_ns).second) {
    billable_ids_.insert(
        std::lower_bound(billable_ids_.begin(), billable_ids_.end(), id), id);
  }
}

void BillingService::preview_observe(const store::ClosedWindow& window) {
  ++preview_.windows;
  preview_.records += window.merged.count;
  for (const auto& [network, usage] : window.breakdown) {
    const double kwh = usage.energy_mwh / 1e6;  // mWh -> kWh
    const double multiplier =
        network != home_ ? tariff_.roaming_multiplier : 1.0;
    preview_.energy_mwh += usage.energy_mwh;
    preview_.est_cost += kwh * tariff_.home_price_per_kwh * multiplier;
  }
}

Invoice BillingService::price(const DeviceId& id, const Usage& usage) const {
  Invoice invoice;
  invoice.device_id = id;
  for (const auto& [network, use] : usage) {
    InvoiceLine line;
    line.network = network;
    line.energy_mwh = use.energy_mwh;
    line.records = use.records;
    line.roamed = network != home_;
    const double kwh = use.energy_mwh / 1e6;  // mWh -> kWh
    const double multiplier = line.roamed ? tariff_.roaming_multiplier : 1.0;
    line.cost = kwh * tariff_.home_price_per_kwh * multiplier;
    invoice.total_energy_mwh += line.energy_mwh;
    invoice.total_cost += line.cost;
    invoice.lines.push_back(std::move(line));
  }
  return invoice;
}

Invoice BillingService::invoice_for(const DeviceId& id) const {
  // A one-device fleet query: the same per-device fold invoice_all runs,
  // from the device's scope mark on.
  store::QuerySpec spec;
  spec.devices = {id};
  const auto mark = billable_.find(id);
  if (mark != billable_.end()) {
    spec.t0_ns = mark->second;
  }
  const store::FleetBreakdown fleet = engine_->network_breakdown(spec);
  return price(id, fleet.per_device.empty() ? kNoUsage
                                            : fleet.per_device.front().second);
}

store::QuerySpec BillingService::billable_spec() const {
  store::QuerySpec spec;
  // The billable set is queried every invoicing read: lend the maintained
  // sorted id vector instead of copying it, and vouch for its order so the
  // engine skips its per-query sort+unique.
  spec.borrowed_devices = &billable_ids_;
  spec.devices_presorted = true;
  for (const auto& [id, from_ns] : billable_) {
    spec.t0_overrides.emplace(id, from_ns);
  }
  return spec;
}

std::vector<Invoice> BillingService::invoice_all() const {
  std::vector<Invoice> out;
  // An empty billable set must not fall into the engine's "empty device
  // list = every device" convention.
  if (billable_.empty()) {
    return out;
  }
  // One shard-parallel fleet query answers every device's breakdown.
  // Merge-join against the billed set (both sorted) so a billable device
  // whose history is entirely out of scope still gets its zero invoice,
  // exactly like invoice_for.
  const store::FleetBreakdown fleet =
      engine_->network_breakdown(billable_spec());
  const auto billed = billed_devices();
  out.reserve(billed.size());
  std::size_t i = 0;
  for (const auto& id : billed) {
    while (i < fleet.per_device.size() && fleet.per_device[i].first < id) {
      ++i;
    }
    const bool found =
        i < fleet.per_device.size() && fleet.per_device[i].first == id;
    out.push_back(price(id, found ? fleet.per_device[i].second : kNoUsage));
  }
  return out;
}

std::vector<DeviceId> BillingService::billed_devices() const {
  std::vector<DeviceId> out;
  out.reserve(billable_.size());
  for (const auto& [id, _] : billable_) {
    if (engine_->tsdb().has_device(id)) {
      out.push_back(id);
    }
  }
  return out;
}

double BillingService::total_energy_mwh() const {
  // One fleet query across all billable devices (per-device scope marks
  // ride along as t0 overrides).  The empty set short-circuits: an empty
  // device list means "every device" to the engine.
  if (billable_.empty()) {
    return 0.0;
  }
  return engine_->network_breakdown(billable_spec()).total_energy_mwh();
}

LedgerAudit audit_ledger(const chain::Ledger& ledger, const NetworkId& home,
                         Tariff tariff) EMON_OWNER_THREAD_CONTEXT {
  // This function owns the scratch store, so it is its ingest thread.
  LedgerAudit audit;
  store::Tsdb tsdb;
  for (const auto& block : ledger.blocks()) {
    for (const auto& raw : block.records) {
      ConsumptionRecord record;
      try {
        record = deserialize_record(raw);
      } catch (const util::DecodeError&) {
        ++audit.foreign;
        continue;
      }
      if (tsdb.ingest(record)) {
        ++audit.records;
      } else {
        ++audit.duplicates;
      }
    }
  }
  const store::QueryEngine engine{tsdb};
  BillingService billing{home, tariff, engine};
  for (const DeviceId& id : tsdb.devices()) {
    billing.mark_billable(id);
  }
  audit.invoices = billing.invoice_all();
  return audit;
}

}  // namespace emon::core
