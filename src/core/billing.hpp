#pragma once
// Billing service (application layer of Figure 2; "services such as
// billing").
//
// The home aggregator bills each of its devices: location-independent
// per-device billing is the architecture's headline capability ("offering
// location-independent per-device billing", abstract).  Energy consumed
// while roaming arrives via roam_records and is billed at home, optionally
// with a per-network surcharge (host networks may charge for infrastructure
// use).
//
// Two modes share the pricing logic:
//   * store-backed (the aggregator's mode): bind_engine() points the service
//     at the aggregator's store::QueryEngine, and every invoicing read is
//     one QueryEngine::network_breakdown over the billable set (or the one
//     device invoiced) — the store is the single source of historical
//     truth, there is no second accumulator to drift from it.
//     mark_billable() scopes invoicing to home members (the store also holds
//     visiting devices' history, which their *home* aggregator bills).
//   * standalone accumulator: `ingest()`/`ingest_ledger()` keep exact
//     per-device/per-network buckets — used for audit replay of the chain
//     and as an independent reference in tests.

#include <cstdint>
#include <map>
#include <vector>

#include "chain/ledger.hpp"
#include "core/records.hpp"
#include "store/query_engine.hpp"
#include "store/rollup.hpp"
#include "store/tsdb.hpp"

namespace emon::core {

struct Tariff {
  /// Price per kWh at the home network (billing currency units).
  double home_price_per_kwh = 0.25;
  /// Surcharge multiplier for energy drawn at foreign networks.
  double roaming_multiplier = 1.15;
};

/// Per-network roll-up inside an invoice.
struct InvoiceLine {
  NetworkId network;
  double energy_mwh = 0.0;
  std::uint64_t records = 0;
  bool roamed = false;
  double cost = 0.0;
};

struct Invoice {
  DeviceId device_id;
  std::vector<InvoiceLine> lines;
  double total_energy_mwh = 0.0;
  double total_cost = 0.0;
};

/// Running cost estimate fed by maintained roll-up windows (push path) —
/// a dashboard figure, not an invoice.  It folds every closed window's
/// per-network energy under the tariff as it arrives, so it includes
/// visiting devices' usage (their home aggregator invoices them) and
/// excludes records the roll-up dropped as too late.  Exact billing stays
/// on the store-backed invoice path.
struct BillingPreview {
  std::uint64_t windows = 0;
  std::uint64_t records = 0;
  double energy_mwh = 0.0;
  double est_cost = 0.0;
};

class BillingService {
 public:
  BillingService(NetworkId home_network, Tariff tariff);

  // -- Store-backed mode -------------------------------------------------------

  /// Prices invoices from `engine` queries over its Tsdb instead of
  /// internal buckets.
  void bind_engine(const store::QueryEngine* engine) noexcept {
    engine_ = engine;
  }
  /// Registers a device this service is responsible for billing (home
  /// members; visiting devices are billed by their own home aggregator).
  /// `from_ns` scopes billing to records from that timestamp on — an
  /// ownership transfer must not re-bill visiting-era history the previous
  /// master already invoiced.  An earlier existing mark is kept.
  void mark_billable(const DeviceId& id, std::int64_t from_ns = INT64_MIN);

  // -- Live preview (push path) ------------------------------------------------

  /// Folds one closed roll-up window into the running preview (the
  /// aggregator's billing-preview subscription hands every window here).
  void preview_observe(const store::ClosedWindow& window);
  [[nodiscard]] const BillingPreview& preview() const noexcept {
    return preview_;
  }

  // -- Standalone accumulator mode ---------------------------------------------

  /// Ingests a single validated record.
  void ingest(const ConsumptionRecord& record);

  /// Ingests every record of every block in a ledger (e.g. on audit replay;
  /// records not parseable as ConsumptionRecord are counted as foreign).
  void ingest_ledger(const chain::Ledger& ledger);

  // -- Invoicing (both modes) --------------------------------------------------

  [[nodiscard]] Invoice invoice_for(const DeviceId& id) const;
  /// Invoices every billed device (store-backed: a single fleet breakdown
  /// query, shard-parallel).  Returned in sorted device order.
  [[nodiscard]] std::vector<Invoice> invoice_all() const;
  [[nodiscard]] std::vector<DeviceId> billed_devices() const;
  /// Total energy across all billed devices and networks (conservation
  /// checks).
  [[nodiscard]] double total_energy_mwh() const;
  [[nodiscard]] std::uint64_t records_ingested() const noexcept {
    return ingested_;
  }
  [[nodiscard]] std::uint64_t foreign_records_skipped() const noexcept {
    return foreign_;
  }
  [[nodiscard]] std::uint64_t duplicates_skipped() const noexcept {
    return duplicates_;
  }

 private:
  using Usage = std::map<NetworkId, store::NetworkUsage>;

  /// Prices one device's per-network usage under the tariff.
  [[nodiscard]] Invoice price(const DeviceId& id, const Usage& usage) const;

  /// Builds the fleet query for the billable set (per-device scope marks as
  /// t0 overrides).
  [[nodiscard]] store::QuerySpec billable_spec() const;

  NetworkId home_;
  Tariff tariff_;
  const store::QueryEngine* engine_ = nullptr;
  /// Billable devices -> earliest record timestamp this service bills.
  std::map<DeviceId, std::int64_t> billable_;
  /// The same keys as a sorted vector, maintained by mark_billable — lent
  /// to fleet queries via QuerySpec::borrowed_devices so every invoicing
  /// read skips both the per-call id copy and the engine's sort+unique.
  std::vector<DeviceId> billable_ids_;
  BillingPreview preview_;
  // Accumulator mode: device -> network -> usage.
  std::map<DeviceId, Usage> buckets_;
  // device -> seen sequence numbers (duplicate suppression).
  std::map<DeviceId, std::map<std::uint64_t, bool>> seen_sequences_;
  double total_mwh_ = 0.0;
  std::uint64_t ingested_ = 0;
  std::uint64_t foreign_ = 0;
  std::uint64_t duplicates_ = 0;
};

}  // namespace emon::core
