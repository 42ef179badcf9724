// Unit tests for emon::net — channels, RSSI/Wi-Fi, MQTT broker+client,
// TDMA slots, backhaul routing and beacon time-sync.

#include <gtest/gtest.h>

#include <cmath>

#include "hw/ds3231.hpp"
#include "net/backhaul.hpp"
#include "net/channel.hpp"
#include "net/mqtt.hpp"
#include "net/tdma.hpp"
#include "net/timesync.hpp"
#include "net/transport.hpp"
#include "net/wifi.hpp"
#include "sim/kernel.hpp"
#include "sim/trace.hpp"

namespace emon::net {
namespace {

using sim::milliseconds;
using sim::seconds;
using sim::SimTime;

// ---------------------------------------------------------------------------
// Channel
// ---------------------------------------------------------------------------

TEST(Channel, DeliversAfterDelay) {
  sim::Kernel k;
  ChannelParams params;
  params.base_latency = milliseconds(5);
  params.jitter = sim::Duration{0};
  params.bandwidth_bps = 0.0;
  Channel ch{k, params, util::Rng{1}};
  SimTime delivered_at;
  EXPECT_TRUE(ch.send(100, [&](std::uint64_t) { delivered_at = k.now(); }));
  k.run();
  EXPECT_EQ(delivered_at.ns(), milliseconds(5).ns());
  EXPECT_EQ(ch.delivered(), 1u);
}

TEST(Channel, BandwidthTermScalesWithSize) {
  sim::Kernel k;
  ChannelParams params;
  params.base_latency = sim::Duration{0};
  params.jitter = sim::Duration{0};
  params.bandwidth_bps = 8e6;  // 1 byte/us
  Channel ch{k, params, util::Rng{1}};
  SimTime t1, t2;
  ch.send(1000, [&](std::uint64_t) { t1 = k.now(); });
  k.run();
  const SimTime base = k.now();
  ch.send(2000, [&](std::uint64_t) { t2 = k.now(); });
  k.run();
  EXPECT_EQ((t1 - SimTime{}).ns(), 1'000'000);
  EXPECT_EQ((t2 - base).ns(), 2'000'000);
}

TEST(Channel, ClosedChannelDrops) {
  sim::Kernel k;
  Channel ch{k, {}, util::Rng{1}};
  ch.set_open(false);
  bool delivered = false;
  EXPECT_FALSE(ch.send(10, [&](std::uint64_t) { delivered = true; }));
  k.run();
  EXPECT_FALSE(delivered);
  EXPECT_EQ(ch.dropped(), 1u);
}

TEST(Channel, LossProbabilityDropsApproximately) {
  sim::Kernel k;
  ChannelParams params;
  params.loss_probability = 0.25;
  Channel ch{k, params, util::Rng{5}};
  int delivered = 0;
  constexpr int kN = 4000;
  for (int i = 0; i < kN; ++i) {
    ch.send(10, [&](std::uint64_t) { ++delivered; });
  }
  k.run();
  EXPECT_NEAR(static_cast<double>(delivered) / kN, 0.75, 0.03);
}

TEST(Channel, FifoOrderingPreserved) {
  // Even with jitter, a later send never overtakes an earlier one.
  sim::Kernel k;
  ChannelParams params;
  params.base_latency = milliseconds(1);
  params.jitter = milliseconds(10);
  Channel ch{k, params, util::Rng{9}};
  std::vector<int> order;
  for (int i = 0; i < 50; ++i) {
    ch.send(10, [&order, i](std::uint64_t) { order.push_back(i); });
  }
  k.run();
  ASSERT_EQ(order.size(), 50u);
  for (int i = 0; i < 50; ++i) {
    EXPECT_EQ(order[static_cast<std::size_t>(i)], i);
  }
}

// ---------------------------------------------------------------------------
// RSSI / WifiMedium
// ---------------------------------------------------------------------------

TEST(Rssi, DecreasesWithDistance) {
  PathLossParams params;
  params.shadowing_sigma_db = 0.0;
  const double near =
      rssi_dbm(params, Position{0, 0}, Position{2, 0}, 1);
  const double far =
      rssi_dbm(params, Position{0, 0}, Position{50, 0}, 1);
  EXPECT_GT(near, far);
}

TEST(Rssi, DeterministicPerPair) {
  PathLossParams params;
  const double a = rssi_dbm(params, Position{0, 0}, Position{10, 0}, 42);
  const double b = rssi_dbm(params, Position{0, 0}, Position{10, 0}, 42);
  EXPECT_DOUBLE_EQ(a, b);
  const double c = rssi_dbm(params, Position{0, 0}, Position{10, 0}, 43);
  EXPECT_NE(a, c);  // different pair hash -> different shadowing
}

TEST(Rssi, MinimumDistanceClamped) {
  PathLossParams params;
  params.shadowing_sigma_db = 0.0;
  const double at0 = rssi_dbm(params, Position{0, 0}, Position{0, 0}, 1);
  const double at1 = rssi_dbm(params, Position{0, 0}, Position{1, 0}, 1);
  EXPECT_DOUBLE_EQ(at0, at1);
}

TEST(WifiMedium, ScanSortsByRssi) {
  sim::Kernel k;
  WifiMedium medium{k};
  AccessPoint near_ap;
  near_ap.ssid = "near";
  near_ap.host_id = "agg-n";
  near_ap.position = {5, 0};
  AccessPoint far_ap;
  far_ap.ssid = "far";
  far_ap.host_id = "agg-f";
  far_ap.position = {60, 0};
  medium.add_access_point(near_ap);
  medium.add_access_point(far_ap);

  const auto results = medium.audible_from(Position{0, 0}, "sta");
  ASSERT_EQ(results.size(), 2u);
  EXPECT_EQ(results[0].ap.ssid, "near");
  EXPECT_GT(results[0].rssi_dbm, results[1].rssi_dbm);
}

TEST(WifiMedium, OutOfRangeApInvisible) {
  sim::Kernel k;
  WifiMedium medium{k};
  AccessPoint ap;
  ap.ssid = "x";
  ap.host_id = "h";
  ap.position = {10'000, 0};
  medium.add_access_point(ap);
  EXPECT_TRUE(medium.audible_from(Position{0, 0}, "sta").empty());
}

TEST(WifiMedium, AddRemoveFind) {
  sim::Kernel k;
  WifiMedium medium{k};
  AccessPoint ap;
  ap.ssid = "a";
  ap.host_id = "h";
  medium.add_access_point(ap);
  EXPECT_TRUE(medium.find("a").has_value());
  EXPECT_TRUE(medium.remove_access_point("a"));
  EXPECT_FALSE(medium.find("a").has_value());
  EXPECT_THROW(medium.add_access_point(AccessPoint{}), std::invalid_argument);
}

// ---------------------------------------------------------------------------
// WifiStation
// ---------------------------------------------------------------------------

struct WifiFixture : ::testing::Test {
  sim::Kernel kernel;
  WifiMedium medium{kernel};

  WifiFixture() {
    AccessPoint ap;
    ap.ssid = "wan-1";
    ap.host_id = "agg-1";
    ap.position = {0, 0};
    medium.add_access_point(ap);
  }

  WifiStation make_station() {
    return WifiStation{medium, "sta-1", WifiStationParams{}, util::Rng{3}};
  }
};

TEST_F(WifiFixture, ScanTakesChannelsTimesDwell) {
  WifiStation sta = make_station();
  sta.set_position({3, 0});
  bool done = false;
  ASSERT_TRUE(sta.start_scan([&](std::vector<ScanEntry> results) {
    done = true;
    ASSERT_EQ(results.size(), 1u);
    EXPECT_EQ(results[0].ap.ssid, "wan-1");
  }));
  EXPECT_EQ(sta.state(), WifiState::kScanning);
  kernel.run();
  EXPECT_TRUE(done);
  // 13 channels x 250 ms.
  EXPECT_EQ(kernel.now().ns(), milliseconds(13 * 250).ns());
}

TEST_F(WifiFixture, ScanRefusedWhileBusy) {
  WifiStation sta = make_station();
  ASSERT_TRUE(sta.start_scan([](std::vector<ScanEntry>) {}));
  EXPECT_FALSE(sta.start_scan([](std::vector<ScanEntry>) {}));
}

TEST_F(WifiFixture, AssociateWithinBounds) {
  WifiStation sta = make_station();
  sta.set_position({3, 0});
  bool connected = false;
  ASSERT_TRUE(sta.associate("wan-1", [&](bool ok) { connected = ok; }));
  kernel.run();
  EXPECT_TRUE(connected);
  EXPECT_EQ(sta.state(), WifiState::kConnected);
  EXPECT_EQ(sta.connected_host(), "agg-1");
  EXPECT_NE(sta.uplink(), nullptr);
  EXPECT_NE(sta.downlink(), nullptr);
  const double t = kernel.now().to_seconds();
  EXPECT_GE(t, 1.3);
  EXPECT_LE(t, 1.7);
}

TEST_F(WifiFixture, AssociateUnknownSsidFails) {
  WifiStation sta = make_station();
  bool result = true;
  sta.associate("nope", [&](bool ok) { result = ok; });
  kernel.run();
  EXPECT_FALSE(result);
  EXPECT_EQ(sta.state(), WifiState::kIdle);
}

TEST_F(WifiFixture, AssociateOutOfRangeFails) {
  WifiStation sta = make_station();
  sta.set_position({5'000, 0});
  bool result = true;
  sta.associate("wan-1", [&](bool ok) { result = ok; });
  kernel.run();
  EXPECT_FALSE(result);
}

TEST_F(WifiFixture, DisconnectClosesChannels) {
  WifiStation sta = make_station();
  sta.set_position({3, 0});
  sta.associate("wan-1", [](bool) {});
  kernel.run();
  auto uplink = sta.uplink();
  ASSERT_NE(uplink, nullptr);
  sta.disconnect();
  EXPECT_EQ(sta.state(), WifiState::kIdle);
  EXPECT_EQ(sta.uplink(), nullptr);
  EXPECT_FALSE(uplink->open());  // retained handle is closed
}

TEST_F(WifiFixture, MovingOutOfCoverageDropsLink) {
  WifiStation sta = make_station();
  sta.set_position({3, 0});
  sta.associate("wan-1", [](bool) {});
  kernel.run();
  bool dropped = false;
  sta.set_on_drop([&] { dropped = true; });
  sta.set_position({9'000, 0});
  EXPECT_TRUE(dropped);
  EXPECT_EQ(sta.state(), WifiState::kIdle);
}

TEST_F(WifiFixture, DisconnectCancelsInFlightScan) {
  WifiStation sta = make_station();
  bool fired = false;
  sta.start_scan([&](std::vector<ScanEntry>) { fired = true; });
  sta.disconnect();
  kernel.run();
  EXPECT_FALSE(fired);
}

// ---------------------------------------------------------------------------
// MQTT
// ---------------------------------------------------------------------------

TEST(MqttTopics, WildcardMatching) {
  EXPECT_TRUE(topic_matches("a/b/c", "a/b/c"));
  EXPECT_FALSE(topic_matches("a/b/c", "a/b"));
  EXPECT_FALSE(topic_matches("a/b", "a/b/c"));
  EXPECT_TRUE(topic_matches("a/+/c", "a/x/c"));
  EXPECT_FALSE(topic_matches("a/+/c", "a/x/y"));
  EXPECT_TRUE(topic_matches("a/#", "a/b/c/d"));
  EXPECT_TRUE(topic_matches("#", "anything/at/all"));
  EXPECT_TRUE(topic_matches("+/b", "a/b"));
  EXPECT_FALSE(topic_matches("+", "a/b"));
  EXPECT_TRUE(topic_matches("emon/report/+", "emon/report/dev-1"));
  EXPECT_FALSE(topic_matches("emon/report/+", "emon/ctrl/dev-1"));
}

struct MqttFixture : ::testing::Test {
  sim::Kernel kernel;
  MqttBroker broker{kernel, "agg-1"};

  std::pair<std::shared_ptr<Channel>, std::shared_ptr<Channel>> channels() {
    ChannelParams params;
    params.base_latency = milliseconds(2);
    params.jitter = sim::Duration{0};
    return {std::make_shared<Channel>(kernel, params, util::Rng{1}),
            std::make_shared<Channel>(kernel, params, util::Rng{2})};
  }
};

TEST_F(MqttFixture, ConnectHandshake) {
  MqttClient client{kernel, "dev-1"};
  auto [up, down] = channels();
  bool connected = false;
  client.connect(broker, up, down, [&](bool ok) { connected = ok; });
  EXPECT_FALSE(client.connected());
  kernel.run();
  EXPECT_TRUE(connected);
  EXPECT_TRUE(client.connected());
  EXPECT_EQ(broker.live_sessions(), 1u);
}

TEST_F(MqttFixture, PublishReachesLocalSubscriber) {
  std::vector<std::string> seen;
  broker.subscribe_local("emon/report/+", [&](const MqttMessage& m) {
    seen.push_back(m.topic + ":" + m.sender);
  });
  MqttClient client{kernel, "dev-1"};
  auto [up, down] = channels();
  client.connect(broker, up, down, [](bool) {});
  kernel.run();
  client.publish("emon/report/dev-1", {1, 2, 3}, 0);
  kernel.run();
  ASSERT_EQ(seen.size(), 1u);
  EXPECT_EQ(seen[0], "emon/report/dev-1:dev-1");
}

TEST_F(MqttFixture, QoS1DeliversAckToPublisher) {
  broker.subscribe_local("#", [](const MqttMessage&) {});
  MqttClient client{kernel, "dev-1"};
  auto [up, down] = channels();
  client.connect(broker, up, down, [](bool) {});
  kernel.run();
  bool acked = false;
  client.publish("t", {9}, 1, [&](bool ok) { acked = ok; });
  kernel.run();
  EXPECT_TRUE(acked);
  EXPECT_EQ(client.retransmissions(), 0u);
}

TEST_F(MqttFixture, RemoteSubscriberReceives) {
  MqttClient pub{kernel, "dev-1"};
  MqttClient sub{kernel, "dev-2"};
  auto [up1, down1] = channels();
  auto [up2, down2] = channels();
  pub.connect(broker, up1, down1, [](bool) {});
  sub.connect(broker, up2, down2, [](bool) {});
  kernel.run();
  std::vector<std::string> seen;
  sub.subscribe("emon/ctrl/#", [&](const MqttMessage& m) {
    seen.push_back(m.topic);
  });
  kernel.run();
  pub.publish("emon/ctrl/dev-2", {1}, 0);
  kernel.run();
  ASSERT_EQ(seen.size(), 1u);
  EXPECT_EQ(seen[0], "emon/ctrl/dev-2");
}

TEST_F(MqttFixture, OverlappingExactAndWildcardFiltersDeliverOnce) {
  // Regression: a session subscribed to a topic through both an exact
  // filter and a matching wildcard filter used to receive the publish
  // twice (once from the exact-topic bucket, once from the wildcard scan).
  MqttClient pub{kernel, "dev-1"};
  MqttClient sub{kernel, "dev-2"};
  auto [up1, down1] = channels();
  auto [up2, down2] = channels();
  pub.connect(broker, up1, down1, [](bool) {});
  sub.connect(broker, up2, down2, [](bool) {});
  kernel.run();
  int received = 0;
  sub.subscribe("emon/ctrl/dev-2", [&](const MqttMessage&) { ++received; });
  sub.subscribe("emon/ctrl/#", [&](const MqttMessage&) { ++received; });
  kernel.run();
  pub.publish("emon/ctrl/dev-2", {1}, 0);
  kernel.run();
  // One wire delivery; the client-side dispatcher runs it through both of
  // its matching handlers (that part is correct MQTT fan-out).
  EXPECT_EQ(received, 2);
  EXPECT_EQ(sub.transport_stats().frames_delivered, 1u);
}

TEST_F(MqttFixture, OverlappingWildcardFiltersDeliverOnce) {
  MqttClient pub{kernel, "dev-1"};
  MqttClient sub{kernel, "dev-2"};
  auto [up1, down1] = channels();
  auto [up2, down2] = channels();
  pub.connect(broker, up1, down1, [](bool) {});
  sub.connect(broker, up2, down2, [](bool) {});
  kernel.run();
  int received = 0;
  sub.subscribe("emon/ctrl/+", [&](const MqttMessage&) { ++received; });
  sub.subscribe("emon/ctrl/#", [&](const MqttMessage&) { ++received; });
  kernel.run();
  pub.publish("emon/ctrl/dev-2", {1}, 0);
  kernel.run();
  EXPECT_EQ(received, 2);  // two matching handlers, one wire delivery
  EXPECT_EQ(sub.transport_stats().frames_delivered, 1u);
}

TEST_F(MqttFixture, DistinctSessionsStillAllReceive) {
  // Dedup is per-session, not per-publish: distinct subscribers matching
  // through different filter kinds all get their copy.
  MqttClient pub{kernel, "dev-1"};
  MqttClient exact_sub{kernel, "dev-2"};
  MqttClient wild_sub{kernel, "dev-3"};
  auto [up1, down1] = channels();
  auto [up2, down2] = channels();
  auto [up3, down3] = channels();
  pub.connect(broker, up1, down1, [](bool) {});
  exact_sub.connect(broker, up2, down2, [](bool) {});
  wild_sub.connect(broker, up3, down3, [](bool) {});
  kernel.run();
  int exact_seen = 0;
  int wild_seen = 0;
  exact_sub.subscribe("emon/ctrl/dev-2", [&](const MqttMessage&) {
    ++exact_seen;
  });
  wild_sub.subscribe("emon/ctrl/#", [&](const MqttMessage&) { ++wild_seen; });
  kernel.run();
  pub.publish("emon/ctrl/dev-2", {1}, 0);
  kernel.run();
  EXPECT_EQ(exact_seen, 1);
  EXPECT_EQ(wild_seen, 1);
}

TEST_F(MqttFixture, NoEchoToPublisher) {
  MqttClient client{kernel, "dev-1"};
  auto [up, down] = channels();
  client.connect(broker, up, down, [](bool) {});
  kernel.run();
  int received = 0;
  client.subscribe("#", [&](const MqttMessage&) { ++received; });
  kernel.run();
  client.publish("x", {1}, 0);
  kernel.run();
  EXPECT_EQ(received, 0);
}

TEST_F(MqttFixture, HostPublishReachesRemoteClient) {
  MqttClient client{kernel, "dev-1"};
  auto [up, down] = channels();
  client.connect(broker, up, down, [](bool) {});
  kernel.run();
  int received = 0;
  client.subscribe("emon/beacon", [&](const MqttMessage&) { ++received; });
  kernel.run();
  broker.publish_from_host(MqttMessage{"emon/beacon", {1, 2}, 0, ""});
  kernel.run();
  EXPECT_EQ(received, 1);
}

TEST_F(MqttFixture, PublishWhileDisconnectedFails) {
  MqttClient client{kernel, "dev-1"};
  bool acked = true;
  client.publish("t", {1}, 1, [&](bool ok) { acked = ok; });
  EXPECT_FALSE(acked);
}

TEST_F(MqttFixture, DropFailsInFlightPublishes) {
  // Broker with no subscribers; sever the downlink so no PUBACK returns.
  MqttClient client{kernel, "dev-1", MqttClientParams{milliseconds(100), 2}};
  auto [up, down] = channels();
  client.connect(broker, up, down, [](bool) {});
  kernel.run();
  down->set_open(false);  // acks lost
  bool ack_result = true;
  bool called = false;
  client.publish("t", {1}, 1, [&](bool ok) {
    called = true;
    ack_result = ok;
  });
  kernel.run();  // exhausts retries
  EXPECT_TRUE(called);
  EXPECT_FALSE(ack_result);
  EXPECT_GT(client.retransmissions(), 0u);
}

TEST_F(MqttFixture, DisconnectEvictsSession) {
  MqttClient client{kernel, "dev-1"};
  auto [up, down] = channels();
  client.connect(broker, up, down, [](bool) {});
  kernel.run();
  EXPECT_EQ(broker.live_sessions(), 1u);
  client.disconnect();
  kernel.run();
  EXPECT_EQ(broker.live_sessions(), 0u);
  EXPECT_FALSE(client.connected());
}

TEST_F(MqttFixture, ReconnectReplacesSession) {
  MqttClient client{kernel, "dev-1"};
  auto [up1, down1] = channels();
  client.connect(broker, up1, down1, [](bool) {});
  kernel.run();
  client.drop();  // hard drop, broker not notified
  auto [up2, down2] = channels();
  bool ok2 = false;
  client.connect(broker, up2, down2, [&](bool ok) { ok2 = ok; });
  kernel.run();
  EXPECT_TRUE(ok2);
  EXPECT_EQ(broker.live_sessions(), 1u);
}

TEST_F(MqttFixture, ResubscribeAfterReconnect) {
  MqttClient client{kernel, "dev-1"};
  int received = 0;
  client.subscribe("emon/ctrl/dev-1",
                   [&](const MqttMessage&) { ++received; });
  auto [up1, down1] = channels();
  client.connect(broker, up1, down1, [](bool) {});
  kernel.run();
  broker.publish_from_host(MqttMessage{"emon/ctrl/dev-1", {1}, 0, ""});
  kernel.run();
  EXPECT_EQ(received, 1);
  // Roam: drop and reconnect on fresh channels; subscription must survive.
  client.drop();
  auto [up2, down2] = channels();
  client.connect(broker, up2, down2, [](bool) {});
  kernel.run();
  broker.publish_from_host(MqttMessage{"emon/ctrl/dev-1", {1}, 0, ""});
  kernel.run();
  EXPECT_EQ(received, 2);
}

TEST(MqttWire, PublishSizeAccounting) {
  MqttMessage m{"abc", {1, 2, 3, 4}, 0, ""};
  EXPECT_EQ(publish_wire_size(m), 6u + 3u + 4u);
}

// ---------------------------------------------------------------------------
// TDMA
// ---------------------------------------------------------------------------

TEST(Tdma, CapacityFromDurations) {
  TdmaSchedule sched{TdmaParams{milliseconds(100), milliseconds(5)}};
  EXPECT_EQ(sched.capacity(), 20u);
  EXPECT_FALSE(sched.full());
}

TEST(Tdma, AllocatesLowestFreeSlot) {
  TdmaSchedule sched{TdmaParams{milliseconds(100), milliseconds(5)}};
  EXPECT_EQ(sched.allocate("a").value(), 0u);
  EXPECT_EQ(sched.allocate("b").value(), 1u);
  EXPECT_FALSE(sched.allocate("a").has_value());  // duplicate
  sched.release("a");
  EXPECT_EQ(sched.allocate("c").value(), 0u);  // reuses freed slot
}

TEST(Tdma, FullScheduleRejects) {
  TdmaSchedule sched{TdmaParams{milliseconds(10), milliseconds(5)}};
  EXPECT_EQ(sched.capacity(), 2u);
  sched.allocate("a");
  sched.allocate("b");
  EXPECT_TRUE(sched.full());
  EXPECT_FALSE(sched.allocate("c").has_value());
}

TEST(Tdma, OffsetAndNextTxTime) {
  TdmaSchedule sched{TdmaParams{milliseconds(100), milliseconds(5)}};
  sched.allocate("a");  // slot 0
  sched.allocate("b");  // slot 1
  EXPECT_EQ(sched.offset_of("b")->ns(), milliseconds(5).ns());
  // At t=2 ms, slot 1 of the current frame (5 ms) is still ahead.
  const auto tx = sched.next_tx_time("b", SimTime{milliseconds(2).ns()});
  EXPECT_EQ(tx->ns(), milliseconds(5).ns());
  // At t=7 ms, slot 1 already passed: next frame.
  const auto tx2 = sched.next_tx_time("b", SimTime{milliseconds(7).ns()});
  EXPECT_EQ(tx2->ns(), milliseconds(105).ns());
  EXPECT_FALSE(sched.next_tx_time("ghost", SimTime{0}).has_value());
}

TEST(Tdma, SlotsNeverOverlap) {
  TdmaSchedule sched{TdmaParams{milliseconds(100), milliseconds(5)}};
  std::vector<std::string> ids;
  for (std::size_t i = 0; i < sched.capacity(); ++i) {
    ids.push_back(std::string("d").append(std::to_string(i)));
    ASSERT_TRUE(sched.allocate(ids.back()).has_value());
  }
  std::set<std::int64_t> offsets;
  for (const auto& id : ids) {
    offsets.insert(sched.offset_of(id)->ns());
  }
  EXPECT_EQ(offsets.size(), ids.size());  // all distinct
}

TEST(Tdma, ValidatesParams) {
  EXPECT_THROW(TdmaSchedule(TdmaParams{sim::Duration{0}, milliseconds(5)}),
               std::invalid_argument);
  EXPECT_THROW(TdmaSchedule(TdmaParams{milliseconds(5), milliseconds(50)}),
               std::invalid_argument);
}

// ---------------------------------------------------------------------------
// Backhaul
// ---------------------------------------------------------------------------

struct BackhaulFixture : ::testing::Test {
  sim::Kernel kernel;
  Backhaul mesh{kernel, util::Rng{7}};
  std::map<std::string, std::vector<Frame>> inbox;

  void add(const std::string& id) {
    mesh.add_node(id, [this, id](const Frame& m) {
      inbox[id].push_back(m);
    });
  }

  static ChannelParams fast_link() {
    ChannelParams params;
    params.base_latency = sim::microseconds(800);
    params.jitter = sim::microseconds(400);
    params.bandwidth_bps = 1e9;
    return params;
  }
};

TEST_F(BackhaulFixture, DirectDelivery) {
  add("a");
  add("b");
  mesh.add_link("a", "b", fast_link());
  EXPECT_TRUE(mesh.send({"a", "b", {1, 2}, 0}));
  kernel.run();
  ASSERT_EQ(inbox["b"].size(), 1u);
  EXPECT_EQ(inbox["b"][0].bytes, (std::vector<std::uint8_t>{1, 2}));
  // ~1 ms one hop (the paper's backhaul latency).
  EXPECT_LT(kernel.now().to_seconds(), 0.002);
  EXPECT_GT(kernel.now().to_seconds(), 0.0005);
}

TEST_F(BackhaulFixture, MultiHopRouting) {
  add("a");
  add("b");
  add("c");
  mesh.add_link("a", "b", fast_link());
  mesh.add_link("b", "c", fast_link());
  const auto route = mesh.route("a", "c");
  ASSERT_TRUE(route.has_value());
  EXPECT_EQ(*route, (std::vector<std::string>{"a", "b", "c"}));
  EXPECT_TRUE(mesh.send({"a", "c", {}, 0}));
  kernel.run();
  EXPECT_EQ(inbox["c"].size(), 1u);
  EXPECT_TRUE(inbox["b"].empty());  // intermediate only forwards
}

TEST_F(BackhaulFixture, PicksLowerLatencyPath) {
  add("a");
  add("b");
  add("c");
  ChannelParams slow = fast_link();
  slow.base_latency = milliseconds(50);
  mesh.add_link("a", "c", slow);           // direct but slow
  mesh.add_link("a", "b", fast_link());    // two fast hops
  mesh.add_link("b", "c", fast_link());
  const auto route = mesh.route("a", "c");
  ASSERT_TRUE(route.has_value());
  EXPECT_EQ(route->size(), 3u);  // a-b-c preferred over slow direct link
}

TEST_F(BackhaulFixture, NoRouteFails) {
  add("a");
  add("b");
  EXPECT_FALSE(mesh.send({"a", "b", {}, 0}));
  EXPECT_FALSE(mesh.route("a", "b").has_value());
  EXPECT_FALSE(mesh.send({"a", "ghost", {}, 0}));
}

TEST_F(BackhaulFixture, SelfSendDelivers) {
  add("a");
  EXPECT_TRUE(mesh.send({"a", "a", {}, 0}));
  kernel.run();
  EXPECT_EQ(inbox["a"].size(), 1u);
}

TEST_F(BackhaulFixture, NodesListed) {
  add("a");
  add("b");
  EXPECT_EQ(mesh.nodes().size(), 2u);
  EXPECT_FALSE(mesh.add_node("a", [](const Frame&) {}));
  EXPECT_THROW(mesh.add_link("a", "ghost", fast_link()),
               std::invalid_argument);
}

// ---------------------------------------------------------------------------
// Transport interface (shared by backhaul and MQTT)
// ---------------------------------------------------------------------------

TEST_F(BackhaulFixture, AckFiresOnDelivery) {
  add("a");
  add("b");
  mesh.add_link("a", "b", fast_link());
  int acks = 0;
  bool last = false;
  EXPECT_TRUE(mesh.send(Frame{"a", "b", {1, 2, 3}, 0}, [&](bool ok) {
    ++acks;
    last = ok;
  }));
  EXPECT_EQ(acks, 0);  // not before delivery
  kernel.run();
  EXPECT_EQ(acks, 1);
  EXPECT_TRUE(last);
}

TEST_F(BackhaulFixture, AckFiresFalseWhenUnroutable) {
  add("a");
  add("b");  // no link
  int acks = 0;
  bool last = true;
  EXPECT_FALSE(mesh.send(Frame{"a", "b", {1}, 0}, [&](bool ok) {
    ++acks;
    last = ok;
  }));
  EXPECT_EQ(acks, 1);
  EXPECT_FALSE(last);
  EXPECT_EQ(mesh.transport_stats().frames_dropped, 1u);
}

TEST_F(BackhaulFixture, ChannelDropFiresAckFalse) {
  add("a");
  add("b");
  ChannelParams lossy = fast_link();
  lossy.loss_probability = 1.0;  // every datagram lost
  mesh.add_link("a", "b", lossy);
  int acks = 0;
  bool last = true;
  EXPECT_TRUE(mesh.send(Frame{"a", "b", {1}, 0}, [&](bool ok) {
    ++acks;
    last = ok;
  }));  // routable, so accepted — but the hop drops it
  kernel.run();
  EXPECT_EQ(acks, 1);
  EXPECT_FALSE(last);
  EXPECT_EQ(mesh.transport_stats().frames_dropped, 1u);
  EXPECT_EQ(mesh.transport_stats().frames_delivered, 0u);
}

TEST_F(BackhaulFixture, TransportStatsCountFrameBytes) {
  add("a");
  add("b");
  mesh.add_link("a", "b", fast_link());
  mesh.send(Frame{"a", "b", std::vector<std::uint8_t>(40), 0});
  kernel.run();
  const auto& stats = mesh.transport_stats();
  EXPECT_EQ(stats.frames_sent, 1u);
  EXPECT_EQ(stats.frames_delivered, 1u);
  EXPECT_EQ(stats.bytes_sent, 40u);
  EXPECT_EQ(stats.bytes_delivered, 40u);
  EXPECT_EQ(mesh.transport_name(), "backhaul");
}

TEST_F(BackhaulFixture, BindTraceRecordsWireBytes) {
  sim::Trace trace;
  mesh.bind_trace(&trace, "wire.backhaul");
  add("a");
  sim::SimTime delivered_at;
  mesh.add_node("b", [&](const Frame&) { delivered_at = kernel.now(); });
  mesh.add_link("a", "b", fast_link());
  mesh.send(Frame{"a", "b", std::vector<std::uint8_t>(16), 0});
  kernel.run();
  ASSERT_GT(delivered_at, sim::SimTime::zero());
  // One tx point at the send and one rx point at the delivery, each
  // carrying the frame's byte count.
  sim::Trace reference;
  reference.append("wire.backhaul.tx_bytes", sim::SimTime::zero(), 16.0);
  reference.append("wire.backhaul.rx_bytes", delivered_at, 16.0);
  EXPECT_EQ(trace.total_points(), 2u);
  EXPECT_EQ(trace.digest(), reference.digest());
}

TEST_F(MqttFixture, ClientSendsFrameThroughTransportApi) {
  std::vector<std::uint8_t> seen;
  broker.subscribe_local("emon/report/+", [&](const MqttMessage& m) {
    seen = m.payload;
  });
  MqttClient client{kernel, "dev-1"};
  auto [up, down] = channels();
  client.connect(broker, up, down, [](bool) {});
  kernel.run();
  bool acked = false;
  EXPECT_TRUE(client.send(Frame{"dev-1", "emon/report/dev-1", {7, 8}, 1},
                          [&](bool ok) { acked = ok; }));
  kernel.run();
  EXPECT_EQ(seen, (std::vector<std::uint8_t>{7, 8}));
  EXPECT_TRUE(acked);
  EXPECT_EQ(client.transport_name(), "mqtt:dev-1");
  EXPECT_EQ(client.transport_stats().frames_sent, 1u);
  EXPECT_EQ(client.transport_stats().bytes_sent, 2u);
  // The broker saw the frame arrive.
  EXPECT_EQ(broker.transport_stats().frames_delivered, 1u);
}

TEST_F(MqttFixture, DisconnectedClientRefusesFrame) {
  MqttClient client{kernel, "dev-1"};
  bool acked = true;
  EXPECT_FALSE(client.send(Frame{"dev-1", "t", {1}, 0},
                           [&](bool ok) { acked = ok; }));
  EXPECT_FALSE(acked);
  EXPECT_EQ(client.transport_stats().frames_dropped, 1u);
}

TEST_F(MqttFixture, BrokerSendsFrameToSubscribedClient) {
  MqttClient client{kernel, "dev-1"};
  auto [up, down] = channels();
  client.connect(broker, up, down, [](bool) {});
  kernel.run();
  std::vector<std::uint8_t> seen;
  client.subscribe("emon/ctrl/dev-1",
                   [&](const MqttMessage& m) { seen = m.payload; });
  kernel.run();
  EXPECT_TRUE(broker.send(Frame{"agg-1", "emon/ctrl/dev-1", {4, 5, 6}, 0}));
  kernel.run();
  EXPECT_EQ(seen, (std::vector<std::uint8_t>{4, 5, 6}));
  EXPECT_EQ(broker.transport_name(), "mqtt-broker:agg-1");
  EXPECT_EQ(client.transport_stats().frames_delivered, 1u);
  EXPECT_EQ(client.transport_stats().bytes_delivered, 3u);
}

// ---------------------------------------------------------------------------
// Time sync
// ---------------------------------------------------------------------------

TEST(TimeSync, BeaconCorrectsDrift) {
  sim::Kernel k;
  hw::Ds3231 rtc{0x68, {}, [&k] { return k.now(); }, util::Rng{21}};
  TimeSyncAgent agent{rtc};
  k.run_until(SimTime{seconds(3600).ns()});  // 1 h of free-running drift
  const double drift_before = std::fabs(rtc.error().to_seconds());
  agent.on_beacon(k.now());
  const double drift_after = std::fabs(rtc.error().to_seconds());
  EXPECT_LT(drift_after, 0.005);  // bounded by assumed-propagation error
  EXPECT_GE(agent.beacons_received(), 1u);
  if (rtc.true_drift_ppm() != 0.0) {
    EXPECT_LT(drift_after, drift_before + 1e-12);
  }
}

TEST(TimeSync, PeriodicBeaconsBoundError) {
  sim::Kernel k;
  hw::Ds3231 rtc{0x68, {}, [&k] { return k.now(); }, util::Rng{22}};
  TimeSyncAgent agent{rtc};
  // Beacon every 10 s for 10 min.
  for (int i = 0; i < 60; ++i) {
    k.run_until(SimTime{seconds(10 * (i + 1)).ns()});
    agent.on_beacon(k.now());
  }
  // Residual error stays within assumed propagation + drift over 10 s.
  EXPECT_LT(std::fabs(rtc.error().to_seconds()), 0.0025);
  EXPECT_EQ(agent.beacons_received(), 60u);
}

}  // namespace
}  // namespace emon::net
