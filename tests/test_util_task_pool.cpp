// Direct coverage of util::TaskPool — the process-wide pool behind every
// evaluation fan-out (run_group), the sweep service's worker seats
// (submit_detached), and the precision search.  The properties proven
// here are the ones the rest of the stack leans on: a single slot runs
// inline, every group slot runs exactly once (also with many outside
// threads submitting at once), slot-indexed merges are bit-identical
// regardless of which thread claims what, nested groups never deadlock
// (the submitting thread claims unclaimed slots itself), a throwing slot
// quiesces the group before rethrowing, cancellation checkpoints stop
// every sibling, a failed submission (std::bad_alloc from the chaos
// allocation hook) never strands a ticket or deadlocks, detached tasks
// queued before stop() still run, and a stopped pool restarts lazily.
//
// Runs under ThreadSanitizer in CI: the queue lives under the pool mutex,
// and the group state (claim counter, completion count, reference count,
// first error) is what these tests prove race-free.

#include "pml/util/alloc_hook.hpp"

PML_INSTALL_COUNTING_ALLOC_HOOK;

#include <gtest/gtest.h>

#include <array>
#include <atomic>
#include <condition_variable>
#include <cstddef>
#include <mutex>
#include <new>
#include <stdexcept>
#include <thread>
#include <vector>

#include "pml/util/cancellation.hpp"
#include "pml/util/task_pool.hpp"

namespace pml::util {
namespace {

TEST(TaskPool, SingletonIsStableAndAtLeastTwoWide) {
  TaskPool& a = TaskPool::instance();
  TaskPool& b = TaskPool::instance();
  EXPECT_EQ(&a, &b);
  // The floor of two guarantees progress when one task parks on a test
  // gate (the chaos/robustness harnesses rely on this).
  EXPECT_GE(a.size(), 2u);
}

TEST(TaskPool, SingleSlotRunsInlineOnCaller) {
  const std::uint64_t started = TaskPool::instance().threads_started();
  std::size_t claimed = 0;
  TaskPool::instance().run_group(1, "test.inline", [&](std::size_t slot) {
    EXPECT_EQ(slot, 0u);
    claimed += 8;  // no synchronization needed: inline = this thread
  });
  EXPECT_EQ(claimed, 8u);
  // Inline means no pool touch: no worker thread was started for it.
  EXPECT_EQ(TaskPool::instance().threads_started(), started);
}

TEST(TaskPool, GroupRunsEverySlotExactlyOnce) {
  TaskPool& pool = TaskPool::instance();
  const std::size_t slots = 3 * pool.size() + 1;  // more slots than workers
  std::vector<int> hits(slots, 0);
  // Distinct cells per slot: the group join publishes the writes.
  pool.run_group(slots, "test.slots",
                 [&](std::size_t slot) { hits[slot] += 1; });
  for (std::size_t i = 0; i < slots; ++i) {
    EXPECT_EQ(hits[i], 1) << "slot " << i;
  }
}

TEST(TaskPool, SlotMergeIsDeterministicUnderAnySchedule) {
  // The batch-loop shape: workers claim items from a shared counter and
  // write results by item index.  Which worker computes which item (and
  // which thread takes which ticket) varies run to run; the merged vector
  // must not.  f(i) is arbitrary but order-sensitive enough to catch an
  // index mixup.
  constexpr std::size_t kItems = 4096;
  const auto f = [](std::size_t i) {
    return static_cast<std::uint64_t>(i) * 2654435761u + 17;
  };
  std::vector<std::uint64_t> expected(kItems);
  for (std::size_t i = 0; i < kItems; ++i) expected[i] = f(i);

  TaskPool& pool = TaskPool::instance();
  for (int round = 0; round < 5; ++round) {
    std::vector<std::uint64_t> out(kItems, 0);
    std::atomic<std::size_t> next{0};
    pool.run_group(pool.size(), "test.merge", [&](std::size_t) {
      for (;;) {
        const std::size_t i = next.fetch_add(1, std::memory_order_relaxed);
        if (i >= kItems) return;
        out[i] = f(i);
      }
    });
    EXPECT_EQ(out, expected) << "round " << round;
  }
}

TEST(TaskPool, NestedGroupsDoNotDeadlock) {
  // Saturate the pool with an outer group, then fan out again from every
  // slot.  Inner slots that no sibling picks up are claimed by the
  // submitting (pool) thread itself, so this completes even when every
  // worker is already busy — the property that lets a sweep-service job
  // fan out its verification shards from inside a pool task.
  TaskPool& pool = TaskPool::instance();
  const std::size_t outer = 2 * pool.size();
  constexpr std::size_t kInner = 4;
  std::atomic<std::size_t> ran{0};
  pool.run_group(outer, "test.outer", [&](std::size_t) {
    pool.run_group(kInner, "test.inner", [&](std::size_t) {
      ran.fetch_add(1, std::memory_order_relaxed);
    });
  });
  EXPECT_EQ(ran.load(), outer * kInner);
}

TEST(TaskPool, ConcurrentSubmittersEachRunEverySlotOnce) {
  // Many non-pool threads feed the one queue at once, the shape of a
  // sweep-service client fleet: every round's group (and the nested group
  // its slot 0 runs) must run each slot exactly once, and every detached
  // task must run.
  TaskPool& pool = TaskPool::instance();
  constexpr int kSubmitters = 8;
  constexpr int kRounds = 200;
  constexpr int kDetachedEvery = 10;
  constexpr int kDetached = kSubmitters * kRounds / kDetachedEvery;
  std::mutex mu;
  std::condition_variable cv;
  int detached_done = 0;
  std::vector<int> bad_rounds(kSubmitters, 0);
  std::vector<std::thread> submitters;
  for (int t = 0; t < kSubmitters; ++t) {
    submitters.emplace_back([&, t] {
      for (int round = 0; round < kRounds; ++round) {
        // Distinct cells per slot: the group join publishes the writes.
        std::array<int, 3> outer{};
        std::array<int, 2> inner{};
        pool.run_group(3, "test.submitters", [&](std::size_t slot) {
          outer[slot] += 1;
          if (slot != 0) return;
          pool.run_group(2, "test.submitters.inner",
                         [&](std::size_t k) { inner[k] += 1; });
        });
        if (outer != std::array<int, 3>{1, 1, 1} ||
            inner != std::array<int, 2>{1, 1}) {
          ++bad_rounds[t];
        }
        if (round % kDetachedEvery == 0) {
          pool.submit_detached("test.submitters.detached", [&] {
            const std::lock_guard<std::mutex> lk(mu);
            if (++detached_done == kDetached) cv.notify_all();
          });
        }
      }
    });
  }
  for (std::thread& th : submitters) th.join();
  for (int t = 0; t < kSubmitters; ++t) {
    EXPECT_EQ(bad_rounds[t], 0) << "submitter " << t;
  }
  std::unique_lock<std::mutex> lk(mu);
  cv.wait(lk, [&] { return detached_done == kDetached; });
  EXPECT_EQ(detached_done, kDetached);
}

TEST(TaskPool, ThrowingSlotQuiescesGroupThenRethrows) {
  TaskPool& pool = TaskPool::instance();
  const std::size_t slots = pool.size() + 3;
  std::atomic<std::size_t> finished{0};
  try {
    pool.run_group(slots, "test.throw", [&](std::size_t slot) {
      if (slot == 2) throw std::runtime_error("slot 2 exploded");
      finished.fetch_add(1, std::memory_order_relaxed);
    });
    FAIL() << "expected the slot exception to propagate";
  } catch (const std::runtime_error& e) {
    EXPECT_STREQ(e.what(), "slot 2 exploded");
  }
  // A group throw cancels nothing by itself: every non-throwing slot
  // still ran, and all of them finished before the rethrow.
  EXPECT_EQ(finished.load(), slots - 1);
}

TEST(TaskPool, FirstOfConcurrentExceptionsWins) {
  // Every slot throws; exactly one exception (the first recorded) must
  // surface, the rest are swallowed once the group quiesces.
  EXPECT_THROW(TaskPool::instance().run_group(4, "test.throw.all",
                                              [](std::size_t) {
                                                throw std::runtime_error(
                                                    "boom");
                                              }),
               std::runtime_error);
}

TEST(TaskPool, CancellationCheckpointStopsSiblings) {
  // The evaluation stack's cancellation contract: a worker that trips a
  // checkpoint throws util::Cancelled; its siblings check the same token
  // at their next claim and stop too, and the Cancelled surfaces to the
  // caller intact (reason and all).
  constexpr std::size_t kItems = 100'000;
  std::atomic<bool> cancel{false};
  const CancellationToken token(&cancel);
  std::atomic<std::size_t> queue{0};
  std::atomic<std::size_t> claimed{0};
  try {
    TaskPool::instance().run_group(4, "test.cancel", [&](std::size_t) {
      for (;;) {
        const std::size_t i = queue.fetch_add(1);
        if (i >= kItems) return;
        if (i == 10) cancel.store(true);  // some worker trips the flag
        token.check("test.checkpoint");
        claimed.fetch_add(1, std::memory_order_relaxed);
      }
    });
    FAIL() << "expected util::Cancelled to propagate";
  } catch (const Cancelled& c) {
    EXPECT_EQ(c.reason(), Cancelled::Reason::kCancelled);
  }
  EXPECT_LT(claimed.load(), kItems);
}

TEST(TaskPool, SubmissionFailureNeverStrandsOrDeadlocks) {
  // Arm the nth allocation on THIS thread (the armed countdown is
  // thread-local, so worker-thread allocations are unaffected) and walk n
  // across a cold group submission: the group record, the worker-thread
  // spawns (the pool is stopped first, so the group restarts it) and the
  // ticket pushes.  Early n fail the submission, which revokes the
  // unstarted slots, waits out the started ones and rethrows; later n
  // never fire.  Every case must end with no ticket stranded and no
  // deadlock.
  TaskPool& pool = TaskPool::instance();
  bool saw_failure = false;
  bool saw_success = false;
  const auto claim_all = [](std::atomic<std::size_t>& queue,
                            std::atomic<std::size_t>& claimed) {
    return [&queue, &claimed](std::size_t) {
      for (;;) {
        if (queue.fetch_add(1) >= 32) return;
        claimed.fetch_add(1);
      }
    };
  };
  for (std::uint64_t nth = 1; nth <= 24; ++nth) {
    pool.stop();
    std::atomic<std::size_t> queue{0};
    std::atomic<std::size_t> claimed{0};
    arm_alloc_failure(nth);
    try {
      pool.run_group(4, "test.spawn", claim_all(queue, claimed));
      disarm_alloc_failure();
      saw_success = true;
      EXPECT_EQ(claimed.load(), 32u);
    } catch (const std::bad_alloc&) {
      disarm_alloc_failure();
      saw_failure = true;
    }
    // Whatever happened, a fresh group works.
    std::atomic<std::size_t> queue2{0};
    std::atomic<std::size_t> claimed2{0};
    pool.run_group(4, "test.spawn", claim_all(queue2, claimed2));
    EXPECT_EQ(claimed2.load(), 32u);
  }
  // The walk must have exercised both outcomes, or the loop bound needs
  // raising — fail loudly rather than silently losing coverage.
  EXPECT_TRUE(saw_failure);
  EXPECT_TRUE(saw_success);
}

TEST(TaskPool, DetachedTasksQueuedBeforeStopStillRun) {
  TaskPool& pool = TaskPool::instance();
  constexpr int kTasks = 32;
  std::mutex mu;
  std::condition_variable cv;
  int done = 0;
  for (int i = 0; i < kTasks; ++i) {
    pool.submit_detached("test.detached", [&] {
      std::lock_guard<std::mutex> lk(mu);
      if (++done == kTasks) cv.notify_all();
    });
  }
  // Workers drain the queue before honoring stop(), so this joins
  // with every task executed even if stop() wins the race to the lock.
  pool.stop();
  std::unique_lock<std::mutex> lk(mu);
  cv.wait(lk, [&] { return done == kTasks; });
  EXPECT_EQ(done, kTasks);
}

TEST(TaskPool, RestartsLazilyAfterStop) {
  TaskPool& pool = TaskPool::instance();
  pool.stop();
  pool.stop();  // idempotent
  const std::uint64_t started_before = pool.threads_started();
  std::atomic<std::size_t> ran{0};
  pool.run_group(pool.size() + 1, "test.restart", [&](std::size_t) {
    ran.fetch_add(1, std::memory_order_relaxed);
  });
  EXPECT_EQ(ran.load(), pool.size() + 1);
  // The group forced a fresh spawn; a second group on the warm pool must
  // not (threads_started is the bench_task_pool no-spawn gate).
  const std::uint64_t started_warm = pool.threads_started();
  EXPECT_GT(started_warm, started_before);
  pool.run_group(pool.size() + 1, "test.warm", [&](std::size_t) {
    ran.fetch_add(1, std::memory_order_relaxed);
  });
  EXPECT_EQ(pool.threads_started(), started_warm);
}

}  // namespace
}  // namespace pml::util
