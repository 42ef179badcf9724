// Unit tests for emon::sim — SimTime/Duration, the event kernel, timers
// and the trace recorder.

#include <gtest/gtest.h>

#include <array>
#include <bit>
#include <cstdint>
#include <functional>
#include <memory>
#include <sstream>
#include <stdexcept>
#include <string>
#include <utility>
#include <vector>

#include "sim/kernel.hpp"
#include "sim/sharded_kernel.hpp"
#include "sim/time.hpp"
#include "sim/timer.hpp"
#include "sim/trace.hpp"

namespace emon::sim {
namespace {

// ---------------------------------------------------------------------------
// Time
// ---------------------------------------------------------------------------

TEST(Time, DurationConstructors) {
  EXPECT_EQ(nanoseconds(5).ns(), 5);
  EXPECT_EQ(microseconds(5).ns(), 5'000);
  EXPECT_EQ(milliseconds(5).ns(), 5'000'000);
  EXPECT_EQ(seconds(5).ns(), 5'000'000'000);
  EXPECT_EQ(minutes(2).ns(), 120'000'000'000);
  EXPECT_EQ(hours(1).ns(), 3'600'000'000'000);
}

TEST(Time, FractionalSecondsRounds) {
  EXPECT_EQ(seconds_f(0.5).ns(), 500'000'000);
  EXPECT_EQ(seconds_f(1e-9).ns(), 1);
  EXPECT_EQ(seconds_f(-0.25).ns(), -250'000'000);
}

TEST(Time, Arithmetic) {
  const SimTime t = SimTime::zero() + seconds(2);
  EXPECT_EQ((t + milliseconds(500)).ns(), 2'500'000'000);
  EXPECT_EQ((t - milliseconds(500)).ns(), 1'500'000'000);
  EXPECT_EQ((t - SimTime::zero()).ns(), seconds(2).ns());
  EXPECT_EQ((seconds(10) / seconds(3)), 3);
  EXPECT_EQ((seconds(3) * 4).ns(), seconds(12).ns());
}

TEST(Time, Comparisons) {
  EXPECT_LT(SimTime{1}, SimTime{2});
  EXPECT_LE(seconds(1), seconds(1));
  EXPECT_GT(SimTime::max(), SimTime{1});
}

TEST(Time, ToStringPicksUnit) {
  EXPECT_EQ(to_string(seconds(2)), "2 s");
  EXPECT_EQ(to_string(milliseconds(250)), "250 ms");
  EXPECT_EQ(to_string(microseconds(10)), "10 us");
  EXPECT_EQ(to_string(nanoseconds(42)), "42 ns");
}

TEST(Time, ConversionHelpers) {
  EXPECT_DOUBLE_EQ(seconds(3).to_seconds(), 3.0);
  EXPECT_DOUBLE_EQ(milliseconds(1500).to_millis(), 1500.0);
  EXPECT_DOUBLE_EQ(SimTime{2'000'000'000}.to_seconds(), 2.0);
}

// ---------------------------------------------------------------------------
// Kernel
// ---------------------------------------------------------------------------

TEST(Kernel, RunsEventsInTimeOrder) {
  Kernel k;
  std::vector<int> order;
  k.schedule_at(SimTime{30}, [&] { order.push_back(3); });
  k.schedule_at(SimTime{10}, [&] { order.push_back(1); });
  k.schedule_at(SimTime{20}, [&] { order.push_back(2); });
  k.run();
  EXPECT_EQ(order, (std::vector<int>{1, 2, 3}));
  EXPECT_EQ(k.now().ns(), 30);
}

TEST(Kernel, SameTimeIsFifo) {
  Kernel k;
  std::vector<int> order;
  for (int i = 0; i < 10; ++i) {
    k.schedule_at(SimTime{100}, [&order, i] { order.push_back(i); });
  }
  k.run();
  for (int i = 0; i < 10; ++i) {
    EXPECT_EQ(order[static_cast<std::size_t>(i)], i);
  }
}

TEST(Kernel, ScheduleInIsRelative) {
  Kernel k;
  SimTime fired;
  k.schedule_at(SimTime{50}, [&] {
    k.schedule_in(Duration{25}, [&] { fired = k.now(); });
  });
  k.run();
  EXPECT_EQ(fired.ns(), 75);
}

TEST(Kernel, RejectsPastAndNull) {
  Kernel k;
  k.schedule_at(SimTime{10}, [] {});
  k.run();
  EXPECT_THROW(k.schedule_at(SimTime{5}, [] {}), std::logic_error);
  EXPECT_THROW(k.schedule_in(Duration{-1}, [] {}), std::logic_error);
  EXPECT_THROW(k.schedule_at(SimTime{20}, nullptr), std::invalid_argument);
}

TEST(Kernel, CancelPreventsExecution) {
  Kernel k;
  bool ran = false;
  const EventId id = k.schedule_at(SimTime{10}, [&] { ran = true; });
  EXPECT_TRUE(k.cancel(id));
  EXPECT_FALSE(k.cancel(id));  // second cancel is a no-op
  k.run();
  EXPECT_FALSE(ran);
}

TEST(Kernel, CancelInvalidIdIsSafe) {
  Kernel k;
  EXPECT_FALSE(k.cancel(EventId{}));
}

TEST(Kernel, PendingCountTracksLiveEvents) {
  Kernel k;
  const EventId a = k.schedule_at(SimTime{10}, [] {});
  k.schedule_at(SimTime{20}, [] {});
  EXPECT_EQ(k.pending(), 2u);
  k.cancel(a);
  EXPECT_EQ(k.pending(), 1u);
  k.run();
  EXPECT_EQ(k.pending(), 0u);
}

TEST(Kernel, RunUntilAdvancesClockWithoutEvents) {
  Kernel k;
  EXPECT_EQ(k.run_until(SimTime{1'000}), 0u);
  EXPECT_EQ(k.now().ns(), 1'000);
}

TEST(Kernel, RunUntilStopsAtBoundary) {
  Kernel k;
  std::vector<int> fired;
  k.schedule_at(SimTime{10}, [&] { fired.push_back(1); });
  k.schedule_at(SimTime{20}, [&] { fired.push_back(2); });
  k.schedule_at(SimTime{30}, [&] { fired.push_back(3); });
  k.run_until(SimTime{20});
  EXPECT_EQ(fired, (std::vector<int>{1, 2}));  // inclusive boundary
  EXPECT_EQ(k.now().ns(), 20);
  k.run_until(SimTime{100});
  EXPECT_EQ(fired.size(), 3u);
  EXPECT_EQ(k.now().ns(), 100);
}

TEST(Kernel, RunUntilPastThrows) {
  Kernel k;
  k.run_until(SimTime{100});
  EXPECT_THROW(k.run_until(SimTime{50}), std::logic_error);
}

TEST(Kernel, EventsCanScheduleEvents) {
  Kernel k;
  int depth = 0;
  std::function<void()> recurse = [&] {
    if (++depth < 100) {
      k.schedule_in(Duration{1}, recurse);
    }
  };
  k.schedule_in(Duration{1}, recurse);
  k.run();
  EXPECT_EQ(depth, 100);
  EXPECT_EQ(k.executed(), 100u);
}

TEST(Kernel, ScheduleEveryFiresAtPeriod) {
  Kernel k;
  std::vector<std::int64_t> fire_times;
  k.schedule_every(Duration{10}, [&] { fire_times.push_back(k.now().ns()); });
  k.run_until(SimTime{35});
  EXPECT_EQ(fire_times, (std::vector<std::int64_t>{10, 20, 30}));
  EXPECT_EQ(k.pending(), 1u);  // the chain stays armed
}

TEST(Kernel, ScheduleEveryInitialDelay) {
  Kernel k;
  std::vector<std::int64_t> fire_times;
  k.schedule_every(Duration{10}, Duration{0},
                   [&] { fire_times.push_back(k.now().ns()); });
  k.run_until(SimTime{25});
  EXPECT_EQ(fire_times, (std::vector<std::int64_t>{0, 10, 20}));
}

TEST(Kernel, ScheduleEveryCancelStopsChain) {
  Kernel k;
  int fires = 0;
  const EventId id = k.schedule_every(Duration{10}, [&] { ++fires; });
  k.run_until(SimTime{25});
  EXPECT_EQ(fires, 2);
  EXPECT_TRUE(k.cancel(id));
  EXPECT_FALSE(k.cancel(id));
  EXPECT_EQ(k.pending(), 0u);
  k.run_until(SimTime{100});
  EXPECT_EQ(fires, 2);
}

TEST(Kernel, ScheduleEveryCallbackCanCancelItself) {
  Kernel k;
  int fires = 0;
  EventId id{};
  id = k.schedule_every(Duration{10}, [&] {
    if (++fires == 3) {
      EXPECT_TRUE(k.cancel(id));
    }
  });
  k.run_until(SimTime{1'000});
  EXPECT_EQ(fires, 3);
  EXPECT_EQ(k.pending(), 0u);
}

TEST(Kernel, ScheduleEveryStoresCallbackOnce) {
  // The allocation-pressure contract of the fast path: one stored callback
  // however many times the event fires, vs one per tick the naive way.
  Kernel k;
  int fast_fires = 0;
  k.schedule_every(Duration{1}, [&] { ++fast_fires; });
  k.run_until(SimTime{1'000});
  EXPECT_EQ(fast_fires, 1'000);
  EXPECT_EQ(k.callbacks_stored(), 1u);
  EXPECT_EQ(k.executed(), 1'000u);

  Kernel naive;
  int naive_fires = 0;
  std::function<void()> tick;
  tick = [&] {
    ++naive_fires;
    if (naive_fires < 1'000) {
      naive.schedule_in(Duration{1}, tick);
    }
  };
  naive.schedule_in(Duration{1}, tick);
  naive.run_until(SimTime{1'000});
  EXPECT_EQ(naive_fires, 1'000);
  EXPECT_EQ(naive.callbacks_stored(), 1'000u);
}

TEST(Kernel, SetPeriodTakesEffectAtNextReschedule) {
  Kernel k;
  std::vector<std::int64_t> fire_times;
  const EventId id = k.schedule_every(
      Duration{100}, [&] { fire_times.push_back(k.now().ns()); });
  k.run_until(SimTime{150});  // one fire at 100; next already queued at 200
  EXPECT_TRUE(k.set_period(id, Duration{50}));
  k.run_until(SimTime{300});
  EXPECT_EQ(fire_times, (std::vector<std::int64_t>{100, 200, 250, 300}));
}

TEST(Kernel, SetPeriodRejectsNonPeriodic) {
  Kernel k;
  const EventId once = k.schedule_at(SimTime{10}, [] {});
  EXPECT_FALSE(k.set_period(once, Duration{5}));
  EXPECT_FALSE(k.set_period(EventId{}, Duration{5}));
  const EventId every = k.schedule_every(Duration{10}, [] {});
  EXPECT_FALSE(k.set_period(every, Duration{0}));
  EXPECT_TRUE(k.set_period(every, Duration{5}));
}

TEST(Kernel, ScheduleEveryRejectsBadArguments) {
  Kernel k;
  EXPECT_THROW(k.schedule_every(Duration{0}, [] {}), std::invalid_argument);
  EXPECT_THROW(k.schedule_every(Duration{10}, nullptr),
               std::invalid_argument);
  EXPECT_THROW(k.schedule_every(Duration{10}, Duration{-1}, [] {}),
               std::logic_error);
}

TEST(Kernel, TombstonesTrackCancelledEntries) {
  Kernel k;
  std::vector<EventId> ids;
  for (int i = 0; i < 10; ++i) {
    ids.push_back(k.schedule_at(SimTime{10 + i}, [] {}));
  }
  for (int i = 0; i < 3; ++i) {
    k.cancel(ids[static_cast<std::size_t>(i)]);
  }
  EXPECT_EQ(k.tombstones(), 3u);
  EXPECT_EQ(k.pending(), 7u);
  k.run();
  EXPECT_EQ(k.tombstones(), 0u);  // reaped while stepping
  EXPECT_EQ(k.executed(), 7u);
}

TEST(Kernel, CompactionWhenTombstonesDominate) {
  // Cancel 150 of 200 pending events: tombstones would outnumber live
  // entries, so the heap must compact instead of hoarding them.
  Kernel k;
  std::vector<EventId> ids;
  int fired = 0;
  for (int i = 0; i < 200; ++i) {
    ids.push_back(k.schedule_at(SimTime{10 + i}, [&] { ++fired; }));
  }
  for (int i = 0; i < 150; ++i) {
    EXPECT_TRUE(k.cancel(ids[static_cast<std::size_t>(i)]));
  }
  EXPECT_GE(k.compactions(), 1u);
  EXPECT_LT(k.tombstones(), 150u);
  EXPECT_EQ(k.pending(), 50u);
  k.run();
  EXPECT_EQ(fired, 50);
  EXPECT_EQ(k.tombstones(), 0u);
}

TEST(Kernel, CancelledSlotsAreRecycled) {
  // Slab slots free on cancel and get reused: scheduling/cancelling in a
  // loop must not grow storage or leak pending events.
  Kernel k;
  for (int i = 0; i < 1'000; ++i) {
    const EventId id = k.schedule_in(Duration{5}, [] {});
    EXPECT_TRUE(k.cancel(id));
  }
  EXPECT_EQ(k.pending(), 0u);
  k.run_until(SimTime{100});
  EXPECT_EQ(k.executed(), 0u);
  EXPECT_EQ(k.tombstones(), 0u);
}

TEST(Kernel, ReentrantCancelFromCallbackDestructor) {
  // Regression: the stored callback of a schedule_every chain owns an RAII
  // guard whose destructor cancels the chain (belt-and-braces cleanup).
  // Cancelling the chain destroys the callback; release_slot() used to do
  // that while the slot still looked live, so the re-entrant cancel()
  // double-freed the callback and pushed the slot onto the free list twice
  // — aliasing two future events on one slot.
  Kernel k;
  auto chain = std::make_shared<EventId>();
  struct Guard {
    Kernel* kernel;
    std::shared_ptr<EventId> id;
    ~Guard() {
      if (kernel != nullptr && id->valid()) {
        kernel->cancel(*id);  // re-enters while the callback is destroyed
      }
    }
  };
  auto guard = std::make_shared<Guard>(Guard{&k, chain});
  *chain = k.schedule_every(milliseconds(10), [guard] {});
  guard.reset();  // the kernel's stored callback now owns the guard

  EXPECT_EQ(k.pending(), 1u);
  EXPECT_TRUE(k.cancel(*chain));
  EXPECT_EQ(k.pending(), 0u);

  // With the slot double-freed these two would alias one slot; each must
  // fire exactly once.
  int a = 0;
  int b = 0;
  k.schedule_in(milliseconds(1), [&] { ++a; });
  k.schedule_in(milliseconds(2), [&] { ++b; });
  k.run_until(SimTime::zero() + milliseconds(50));
  EXPECT_EQ(a, 1);
  EXPECT_EQ(b, 1);
  EXPECT_EQ(k.pending(), 0u);
}

TEST(Kernel, SelfCancelWithCompactionInsideCancel) {
  // A periodic callback cancels its own chain while the heap is ripe for
  // compaction: cancel() bumps the generation, maybe_compact() reaps the
  // requeued next occurrence, and the post-fire bookkeeping must still
  // release the slot exactly once.
  Kernel k;
  std::vector<EventId> ids;
  for (int i = 0; i < 100; ++i) {
    ids.push_back(k.schedule_in(seconds(100 + i), [] {}));
  }
  for (int i = 0; i < 60; ++i) {
    k.cancel(ids[static_cast<std::size_t>(i)]);
  }
  int fires = 0;
  auto chain = std::make_shared<EventId>();
  *chain = k.schedule_every(milliseconds(10), [&fires, chain, &k] {
    if (++fires == 3) {
      EXPECT_TRUE(k.cancel(*chain));  // triggers compaction mid-fire
    }
  });
  k.run_until(SimTime::zero() + seconds(1));
  EXPECT_EQ(fires, 3);

  // The freed slot must be cleanly reusable.
  int later = 0;
  for (int i = 0; i < 50; ++i) {
    k.schedule_in(milliseconds(i + 1), [&later] { ++later; });
  }
  k.run_until(SimTime::zero() + seconds(2));
  EXPECT_EQ(later, 50);
  EXPECT_EQ(fires, 3);  // the cancelled chain never fires again
}

TEST(Kernel, CancelOtherChainDuringFireWithCompaction) {
  // Cancelling a *different* periodic chain from inside a firing callback
  // (with compaction kicking in mid-fire) must not disturb the firing
  // chain's own queued occurrence, and a follow-up self-cancel still works.
  Kernel k;
  std::vector<EventId> ids;
  for (int i = 0; i < 80; ++i) {
    ids.push_back(k.schedule_in(seconds(50 + i), [] {}));
  }
  for (int i = 0; i < 39; ++i) {
    k.cancel(ids[static_cast<std::size_t>(i)]);
  }
  int a_fires = 0;
  int b_fires = 0;
  auto a = std::make_shared<EventId>();
  auto b = std::make_shared<EventId>();
  *b = k.schedule_every(milliseconds(7), [&b_fires] { ++b_fires; });
  *a = k.schedule_every(milliseconds(5), [&, a, b] {
    if (++a_fires == 2) {
      EXPECT_TRUE(k.cancel(*b));
      EXPECT_TRUE(k.cancel(*a));
    }
  });
  k.run_until(SimTime::zero() + seconds(1));
  EXPECT_EQ(a_fires, 2);
  EXPECT_EQ(b_fires, 1);  // b fires at 7 ms, dies at a's 10 ms fire
}

TEST(Kernel, SelfCancelThenRescheduleKeepsGenerationsApart) {
  // Self-cancel followed by a fresh schedule_every from the same callback:
  // the retired slot's generation must isolate the old chain's queued
  // occurrence from any slot reuse.
  Kernel k;
  int first = 0;
  int second = 0;
  auto chain = std::make_shared<EventId>();
  *chain = k.schedule_every(milliseconds(10), [&, chain] {
    if (++first == 1) {
      EXPECT_TRUE(k.cancel(*chain));
      k.schedule_every(milliseconds(10), [&second] { ++second; });
    }
  });
  k.run_until(SimTime::zero() + milliseconds(105));
  EXPECT_EQ(first, 1);
  EXPECT_EQ(second, 9);  // fires at 20, 30, ..., 100 ms
  EXPECT_EQ(k.pending(), 1u);
}

TEST(Kernel, RunLimitBounds) {
  Kernel k;
  int count = 0;
  for (int i = 0; i < 10; ++i) {
    k.schedule_at(SimTime{i + 1}, [&] { ++count; });
  }
  EXPECT_EQ(k.run(3), 3u);
  EXPECT_EQ(count, 3);
  k.run();
  EXPECT_EQ(count, 10);
}

// ---------------------------------------------------------------------------
// ShardedKernel — conservative-lookahead parallel driver
// ---------------------------------------------------------------------------

TEST(ShardedKernel, SingleShardMatchesPlainKernel) {
  // shards=1 must be bit-exact with a plain Kernel run of the same
  // workload: same fire order, same executed count.
  std::vector<std::pair<std::int64_t, int>> plain;
  {
    Kernel k;
    for (int i = 0; i < 5; ++i) {
      k.schedule_every(milliseconds(3 + i), [&plain, i, &k] {
        plain.emplace_back(k.now().ns(), i);
      });
    }
    k.run_until(SimTime::zero() + milliseconds(100));
  }
  std::vector<std::pair<std::int64_t, int>> sharded;
  ShardedKernel sk{1, milliseconds(1)};
  Kernel& k = sk.shard(0);
  for (int i = 0; i < 5; ++i) {
    k.schedule_every(milliseconds(3 + i), [&sharded, i, &k] {
      sharded.emplace_back(k.now().ns(), i);
    });
  }
  sk.run_until(SimTime::zero() + milliseconds(100));
  EXPECT_EQ(plain, sharded);
  EXPECT_EQ(sk.now(), SimTime::zero() + milliseconds(100));
}

TEST(ShardedKernel, CrossShardPingPongIsDeterministic) {
  // Two shards bounce a counter through the mailbox with exactly-lookahead
  // stamps; the resulting event log must be identical across runs (and
  // independent of thread interleaving).
  const auto run_once = [] {
    std::vector<std::pair<std::int64_t, int>> log;
    ShardedKernel sk{2, milliseconds(2)};
    std::function<void(std::size_t, int)> bounce =
        [&](std::size_t at_shard, int hop) {
          log.emplace_back(sk.shard(at_shard).now().ns(),
                           static_cast<int>(at_shard) * 1000 + hop);
          if (hop >= 20) {
            return;
          }
          const std::size_t next = 1 - at_shard;
          sk.post(at_shard, next,
                  sk.shard(at_shard).now() + milliseconds(2),
                  [&bounce, next, hop] { bounce(next, hop + 1); });
        };
    sk.shard(0).schedule_in(milliseconds(1), [&bounce] { bounce(0, 0); });
    // Local background chatter on both shards so the mailbox path has to
    // interleave with ordinary events (counters are per-shard: shard
    // threads must never share mutable state outside the mailbox).
    std::uint64_t ticks0 = 0;
    std::uint64_t ticks1 = 0;
    sk.shard(0).schedule_every(milliseconds(1), [&ticks0] { ++ticks0; });
    sk.shard(1).schedule_every(milliseconds(1), [&ticks1] { ++ticks1; });
    sk.run_until(SimTime::zero() + milliseconds(100));
    log.emplace_back(static_cast<std::int64_t>(ticks0 + ticks1), -1);
    return log;
  };
  const auto first = run_once();
  const auto second = run_once();
  EXPECT_EQ(first, second);
  ASSERT_GE(first.size(), 21u);  // 21 bounce hops + tick tally
}

TEST(ShardedKernel, SameInstantCrossDeliveriesOrderByOrigin) {
  // Deliveries from different origin shards stamped at the same instant
  // must execute in (origin, sequence) order however the threads raced.
  const auto run_once = [] {
    std::vector<int> order;
    ShardedKernel sk{3, milliseconds(5)};
    const SimTime when = SimTime::zero() + milliseconds(10);
    for (std::size_t origin = 0; origin < 2; ++origin) {
      sk.shard(origin).schedule_in(milliseconds(1), [&sk, &order, origin,
                                                     when] {
        for (int i = 0; i < 3; ++i) {
          sk.post(origin, 2, when, [&order, origin, i] {
            order.push_back(static_cast<int>(origin) * 10 + i);
          });
        }
      });
    }
    sk.run_until(SimTime::zero() + milliseconds(20));
    return order;
  };
  const std::vector<int> expected{0, 1, 2, 10, 11, 12};
  EXPECT_EQ(run_once(), expected);
  EXPECT_EQ(run_once(), expected);
}

TEST(ShardedKernel, ManyShardsConserveWork) {
  ShardedKernel sk{4, milliseconds(1)};
  std::array<std::uint64_t, 4> ticks{};
  for (std::size_t s = 0; s < 4; ++s) {
    auto& count = ticks[s];
    sk.shard(s).schedule_every(milliseconds(2), [&count] { ++count; });
  }
  sk.run_until(SimTime::zero() + seconds(1));
  for (std::size_t s = 0; s < 4; ++s) {
    EXPECT_EQ(ticks[s], 500u) << "shard " << s;
    EXPECT_EQ(sk.shard(s).now(), SimTime::zero() + seconds(1));
  }
  EXPECT_EQ(sk.total_executed(), 2000u);
  EXPECT_GT(sk.sync_rounds(), 0u);
}

TEST(ShardedKernel, StaleDeliveryStampSurfacesAsError) {
  // A delivery stamped in the destination's past is a lookahead-contract
  // violation and must fail loudly, not silently reorder time.
  ShardedKernel sk{1, milliseconds(1)};
  sk.run_until(SimTime::zero() + milliseconds(10));
  sk.post(sk.driver_origin(), 0, SimTime::zero() + milliseconds(5), [] {});
  EXPECT_THROW(sk.run_until(SimTime::zero() + milliseconds(20)),
               std::logic_error);
}

TEST(ShardedKernel, BoundaryEventsRunLikePlainKernel) {
  // Events scheduled at exactly the current time must execute on a
  // run_until(now) call, matching Kernel::run_until's inclusive boundary.
  // Regression: an early return used to skip them (and with it, flush
  // semantics after back-to-back run_until calls to the same instant).
  ShardedKernel sk{2, milliseconds(2)};
  const SimTime t = SimTime::zero() + milliseconds(10);
  sk.run_until(t);
  int fired = 0;
  sk.shard(0).schedule_at(t, [&fired] { ++fired; });
  sk.shard(1).schedule_at(t, [&fired] { ++fired; });
  sk.run_until(t);
  EXPECT_EQ(fired, 2);
}

TEST(ShardedKernel, RejectsBadConstruction) {
  EXPECT_THROW(ShardedKernel(0, milliseconds(1)), std::invalid_argument);
  EXPECT_THROW(ShardedKernel(2, Duration{0}), std::invalid_argument);
  // A 1 ns lookahead makes the safe bound equal each shard's own horizon:
  // every worker would park forever.  Regression: this used to deadlock.
  EXPECT_THROW(ShardedKernel(2, Duration{1}), std::invalid_argument);
  EXPECT_NO_THROW(ShardedKernel(1, Duration{1}));  // unused with one shard
}

// ---------------------------------------------------------------------------
// Timers
// ---------------------------------------------------------------------------

TEST(PeriodicTimer, FiresAtPeriod) {
  Kernel k;
  std::vector<std::int64_t> fire_times;
  PeriodicTimer t{k, milliseconds(100), [&] { fire_times.push_back(k.now().ns()); }};
  t.start();
  k.run_until(SimTime{milliseconds(350).ns()});
  ASSERT_EQ(fire_times.size(), 3u);
  EXPECT_EQ(fire_times[0], milliseconds(100).ns());
  EXPECT_EQ(fire_times[1], milliseconds(200).ns());
  EXPECT_EQ(fire_times[2], milliseconds(300).ns());
}

TEST(PeriodicTimer, ImmediateFire) {
  Kernel k;
  int fires = 0;
  PeriodicTimer t{k, milliseconds(100), [&] { ++fires; }};
  t.start(/*fire_immediately=*/true);
  k.run_until(SimTime{milliseconds(100).ns()});
  EXPECT_EQ(fires, 2);  // at t=0 and t=100ms
}

TEST(PeriodicTimer, StopHalts) {
  Kernel k;
  int fires = 0;
  PeriodicTimer t{k, milliseconds(10), [&] { ++fires; }};
  t.start();
  k.run_until(SimTime{milliseconds(35).ns()});
  t.stop();
  k.run_until(SimTime{milliseconds(100).ns()});
  EXPECT_EQ(fires, 3);
  EXPECT_FALSE(t.running());
}

TEST(PeriodicTimer, CallbackCanStopItself) {
  Kernel k;
  int fires = 0;
  PeriodicTimer t{k, milliseconds(10), [&] {
    if (++fires == 2) {
      t.stop();
    }
  }};
  t.start();
  k.run_until(SimTime{seconds(1).ns()});
  EXPECT_EQ(fires, 2);
}

TEST(PeriodicTimer, DestructorCancels) {
  Kernel k;
  int fires = 0;
  {
    PeriodicTimer t{k, milliseconds(10), [&] { ++fires; }};
    t.start();
  }
  k.run_until(SimTime{milliseconds(100).ns()});
  EXPECT_EQ(fires, 0);
}

TEST(PeriodicTimer, RejectsBadConstruction) {
  Kernel k;
  EXPECT_THROW(PeriodicTimer(k, Duration{0}, [] {}), std::invalid_argument);
  EXPECT_THROW(PeriodicTimer(k, milliseconds(1), nullptr),
               std::invalid_argument);
}

TEST(OneShotTimer, FiresOnce) {
  Kernel k;
  int fires = 0;
  OneShotTimer t{k, [&] { ++fires; }};
  t.arm(milliseconds(50));
  EXPECT_TRUE(t.armed());
  k.run_until(SimTime{seconds(1).ns()});
  EXPECT_EQ(fires, 1);
  EXPECT_FALSE(t.armed());
}

TEST(OneShotTimer, RearmReplacesPending) {
  Kernel k;
  std::vector<std::int64_t> fire_times;
  OneShotTimer t{k, [&] { fire_times.push_back(k.now().ns()); }};
  t.arm(milliseconds(50));
  t.arm(milliseconds(200));  // replaces
  k.run_until(SimTime{seconds(1).ns()});
  ASSERT_EQ(fire_times.size(), 1u);
  EXPECT_EQ(fire_times[0], milliseconds(200).ns());
}

TEST(OneShotTimer, DisarmCancels) {
  Kernel k;
  int fires = 0;
  OneShotTimer t{k, [&] { ++fires; }};
  t.arm(milliseconds(50));
  t.disarm();
  k.run_until(SimTime{seconds(1).ns()});
  EXPECT_EQ(fires, 0);
}

// ---------------------------------------------------------------------------
// Trace
// ---------------------------------------------------------------------------

TEST(Trace, AppendsAndReadsBack) {
  Trace trace;
  trace.append("s1", SimTime{10}, 1.5);
  trace.append("s1", SimTime{20}, 2.5);
  trace.append("s2", SimTime{10}, -1.0);
  EXPECT_TRUE(trace.has("s1"));
  EXPECT_FALSE(trace.has("s3"));
  EXPECT_EQ(trace.series("s1").size(), 2u);
  EXPECT_EQ(trace.total_points(), 3u);
  EXPECT_EQ(trace.series_names(), (std::vector<std::string>{"s1", "s2"}));
}

TEST(Trace, UnknownSeriesThrows) {
  Trace trace;
  EXPECT_THROW((void)trace.series("nope"), std::out_of_range);
}

TEST(Trace, WindowAggregates) {
  Trace trace;
  for (int i = 0; i < 10; ++i) {
    trace.append("v", SimTime{i * 10}, static_cast<double>(i));
  }
  // [20, 50) -> values 2, 3, 4.
  EXPECT_DOUBLE_EQ(trace.sum_in("v", SimTime{20}, SimTime{50}), 9.0);
  EXPECT_DOUBLE_EQ(trace.mean_in("v", SimTime{20}, SimTime{50}), 3.0);
  EXPECT_DOUBLE_EQ(trace.mean_in("v", SimTime{1000}, SimTime{2000}), 0.0);
  EXPECT_DOUBLE_EQ(trace.sum_in("absent", SimTime{0}, SimTime{10}), 0.0);
}

TEST(Trace, CsvLongFormat) {
  Trace trace;
  trace.append("a", SimTime{seconds(1).ns()}, 2.0);
  std::ostringstream out;
  trace.write_csv(out);
  EXPECT_EQ(out.str(), "time_s,series,value\n1,a,2\n");
}

TEST(Trace, ClearResets) {
  Trace trace;
  trace.append("a", SimTime{1}, 1.0);
  trace.clear();
  EXPECT_EQ(trace.total_points(), 0u);
  EXPECT_EQ(trace.digest(), 0u);
  EXPECT_FALSE(trace.has("a"));
}

struct DigestPoint {
  const char* series;
  std::int64_t t;
  double value;
};

// Two series sharing timestamps, and a same-instant pair within one series.
const std::vector<DigestPoint> kDigestPoints = {
    {"a", 10, 1.5}, {"a", 20, 2.5}, {"b", 10, -1.0},
    {"b", 10, 4.0}, {"c", 5, 0.0},  {"a", 30, 1.5}};

void append_all(Trace& trace, const std::vector<DigestPoint>& points) {
  for (const auto& p : points) {
    trace.append(p.series, SimTime{p.t}, p.value);
  }
}

TEST(Trace, DigestIgnoresHowAppendsInterleave) {
  Trace forward;
  append_all(forward, kDigestPoints);
  std::vector<DigestPoint> reversed(kDigestPoints.rbegin(),
                                    kDigestPoints.rend());
  Trace backward;
  append_all(backward, reversed);
  EXPECT_NE(forward.digest(), 0u);
  EXPECT_EQ(forward.digest(), backward.digest());
}

TEST(Trace, DigestsOfSplitTracesSumToTheWhole) {
  Trace whole;
  append_all(whole, kDigestPoints);
  Trace even;
  Trace odd;
  for (std::size_t i = 0; i < kDigestPoints.size(); ++i) {
    append_all(i % 2 == 0 ? even : odd, {kDigestPoints[i]});
  }
  EXPECT_EQ(even.digest() + odd.digest(), whole.digest());

  Trace merged(/*retain=*/false);
  merged.merge_shards({&even, &odd});
  EXPECT_EQ(merged.digest(), whole.digest());
  EXPECT_EQ(merged.total_points(), whole.total_points());
}

TEST(Trace, DigestSeesOneFlippedBit) {
  Trace base;
  append_all(base, kDigestPoints);
  const auto with = [](std::vector<DigestPoint> points) {
    Trace trace;
    append_all(trace, points);
    return trace.digest();
  };
  std::vector<DigestPoint> value_bit = kDigestPoints;
  value_bit[2].value = std::bit_cast<double>(
      std::bit_cast<std::uint64_t>(value_bit[2].value) ^ 1u);
  EXPECT_NE(with(value_bit), base.digest());
  std::vector<DigestPoint> time_bit = kDigestPoints;
  time_bit[2].t ^= 1;
  EXPECT_NE(with(time_bit), base.digest());
  std::vector<DigestPoint> renamed = kDigestPoints;
  renamed[2].series = "c";
  EXPECT_NE(with(renamed), base.digest());
}

TEST(Trace, HandleAndNameAppendsDigestAlike) {
  Trace by_name;
  by_name.append("s", SimTime{7}, 3.0);
  Trace by_handle(/*retain=*/false);
  const SeriesId s = by_handle.intern("s");
  by_handle.append(s, SimTime{7}, 3.0);
  EXPECT_EQ(by_name.digest(), by_handle.digest());
  EXPECT_EQ(by_handle.total_points(), 1u);
}

TEST(Trace, ReadingWithoutRetentionThrows) {
  Trace trace(/*retain=*/false);
  append_all(trace, kDigestPoints);
  EXPECT_EQ(trace.total_points(), kDigestPoints.size());
  EXPECT_THROW((void)trace.series("a"), std::logic_error);
  EXPECT_THROW((void)trace.has("a"), std::logic_error);
  EXPECT_THROW((void)trace.mean_in("a", SimTime{0}, SimTime{100}),
               std::logic_error);
  EXPECT_THROW((void)trace.series_names(), std::logic_error);
  std::ostringstream out;
  EXPECT_THROW(trace.write_csv(out), std::logic_error);
  try {
    (void)trace.sum_in("a", SimTime{0}, SimTime{100});
    FAIL() << "expected std::logic_error";
  } catch (const std::logic_error& e) {
    EXPECT_NE(std::string(e.what()).find("retain_trace"), std::string::npos);
  }
}

TEST(Trace, MergeShardsOrdersRetainedPointsByTimeThenShard) {
  Trace first;
  first.append("shared", SimTime{10}, 1.0);
  first.append("shared", SimTime{30}, 3.0);
  first.append("mine", SimTime{5}, 0.5);
  Trace second;
  second.append("shared", SimTime{10}, 2.0);
  second.append("shared", SimTime{20}, 4.0);
  Trace merged;
  merged.merge_shards({&first, &second});
  const auto& shared = merged.series("shared");
  ASSERT_EQ(shared.size(), 4u);
  EXPECT_EQ(shared[0].value, 1.0);  // same instant: shard 0 first
  EXPECT_EQ(shared[1].value, 2.0);
  EXPECT_EQ(shared[2].value, 4.0);
  EXPECT_EQ(shared[3].value, 3.0);
  EXPECT_EQ(merged.series("mine").size(), 1u);
  EXPECT_EQ(merged.total_points(), 5u);
  EXPECT_EQ(merged.digest(), first.digest() + second.digest());
}

}  // namespace
}  // namespace emon::sim
