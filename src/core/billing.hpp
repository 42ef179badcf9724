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
// One billing algebra: every invoice is priced from the store.  The
// service reads its aggregator's store::QueryEngine; each invoicing read is
// one QueryEngine::network_breakdown over the billable set (or the one
// device invoiced), so there is no second accumulator to drift from the
// store.  mark_billable() scopes invoicing to home members (the store also
// holds visiting devices' history, which their *home* aggregator bills).
// Chain audit (audit_ledger below) replays the ledger into a scratch store
// and bills it through the same fold, so an audit invoice equals the live
// invoice over the same records bit for bit.

#include <cstdint>
#include <map>
#include <vector>

#include "chain/ledger.hpp"
#include "core/records.hpp"
#include "store/query_engine.hpp"
#include "store/rollup.hpp"
#include "store/tsdb.hpp"
#include "util/thread_annotations.hpp"

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
  /// Prices invoices from `engine`'s queries; the engine must outlive the
  /// service.
  BillingService(NetworkId home_network, Tariff tariff,
                 const store::QueryEngine& engine);

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

  // -- Invoicing ---------------------------------------------------------------

  [[nodiscard]] Invoice invoice_for(const DeviceId& id) const;
  /// Invoices every billed device with a single fleet breakdown query,
  /// shard-parallel.  Returned in sorted device order.
  [[nodiscard]] std::vector<Invoice> invoice_all() const;
  /// Billable devices the store holds records for, in sorted order.
  [[nodiscard]] std::vector<DeviceId> billed_devices() const;
  /// Total energy across all billed devices and networks (conservation
  /// checks).
  [[nodiscard]] double total_energy_mwh() const;

 private:
  using Usage = std::map<NetworkId, store::NetworkUsage>;

  /// Prices one device's per-network usage under the tariff.
  [[nodiscard]] Invoice price(const DeviceId& id, const Usage& usage) const;

  /// Builds the fleet query for the billable set (per-device scope marks as
  /// t0 overrides).
  [[nodiscard]] store::QuerySpec billable_spec() const;

  NetworkId home_;
  Tariff tariff_;
  const store::QueryEngine* engine_;
  /// Billable devices -> earliest record timestamp this service bills.
  std::map<DeviceId, std::int64_t> billable_;
  /// The same keys as a sorted vector, maintained by mark_billable — lent
  /// to fleet queries via QuerySpec::borrowed_devices so every invoicing
  /// read skips both the per-call id copy and the engine's sort+unique.
  std::vector<DeviceId> billable_ids_;
  BillingPreview preview_;
};

/// A chain audit: the ledger's records billed through the store.
struct LedgerAudit {
  /// One invoice per device with records on the chain, in device order.
  std::vector<Invoice> invoices;
  /// Records billed (first copy of each (device, sequence)).
  std::uint64_t records = 0;
  /// Later copies of an already billed (device, sequence).
  std::uint64_t duplicates = 0;
  /// Payloads that do not decode as a ConsumptionRecord.
  std::uint64_t foreign = 0;

  [[nodiscard]] double total_energy_mwh() const noexcept {
    double total = 0.0;
    for (const Invoice& invoice : invoices) {
      total += invoice.total_energy_mwh;
    }
    return total;
  }
};

/// Replays every record of every block into a scratch store::Tsdb, whose
/// ingest dedup decides duplicates, and invoices every replayed device
/// from `home`'s point of view through a one-worker QueryEngine — the same
/// fold live billing runs.
[[nodiscard]] LedgerAudit audit_ledger(const chain::Ledger& ledger,
                                       const NetworkId& home, Tariff tariff)
    EMON_OWNER_THREAD_CONTEXT;

}  // namespace emon::core
