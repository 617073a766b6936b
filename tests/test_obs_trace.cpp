// pml::obs tracer: spans record only while a tracer is installed, the
// emitted Chrome trace JSON parses back with an independent parser
// (tests/json_test_util.hpp) and carries the required event fields, spans
// nest by time containment on one thread, and util::TaskPool::run_group
// fan-outs land on distinct, named thread tracks.

#include <gtest/gtest.h>

#include <atomic>
#include <set>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "json_test_util.hpp"
#include "pml/obs/json.hpp"
#include "pml/obs/trace.hpp"
#include "pml/util/task_pool.hpp"

namespace pml::obs {
namespace {

TEST(ObsTrace, NoTracerNoRecording) {
  ASSERT_FALSE(Tracer::enabled());
  ASSERT_EQ(Tracer::current(), nullptr);
  // Harmless without a sink — and invisible: nothing to assert against
  // except that enabled() stayed false and a later tracer starts empty.
  { PML_OBS_SPAN("orphan"); }
  Tracer t;
  Tracer::install(&t);
  EXPECT_TRUE(Tracer::enabled());
  Tracer::uninstall();
  EXPECT_TRUE(t.events().empty());
}

TEST(ObsTrace, SecondInstallThrows) {
  Tracer a;
  Tracer b;
  Tracer::install(&a);
  EXPECT_THROW(Tracer::install(&b), std::logic_error);
  Tracer::uninstall();
}

TEST(ObsTrace, SpansNestByTimeContainment) {
  Tracer t;
  Tracer::install(&t);
  {
    PML_OBS_SPAN("outer");
    { PML_OBS_SPAN("inner.a"); }
    { PML_OBS_SPAN("inner.b"); }
  }
  Tracer::uninstall();

  const std::vector<TraceEvent> evs = t.events();
  ASSERT_EQ(evs.size(), 3u);
  // Spans are recorded at destruction: inner.a, inner.b, outer.
  EXPECT_EQ(evs[0].name, "inner.a");
  EXPECT_EQ(evs[1].name, "inner.b");
  EXPECT_EQ(evs[2].name, "outer");
  const TraceEvent& outer = evs[2];
  const std::uint32_t tid = outer.tid;
  for (std::size_t i = 0; i < 2; ++i) {
    EXPECT_EQ(evs[i].tid, tid) << evs[i].name;
    EXPECT_GE(evs[i].start_ns, outer.start_ns) << evs[i].name;
    EXPECT_LE(evs[i].start_ns + evs[i].dur_ns, outer.start_ns + outer.dur_ns)
        << evs[i].name;
  }
  // inner.a completes before inner.b starts.
  EXPECT_LE(evs[0].start_ns + evs[0].dur_ns, evs[1].start_ns);
}

TEST(ObsTrace, MidSpanInstallRecordsNothing) {
  // The enabled() check is at span entry by design: a tracer installed
  // while the span is already open must not see a bogus event.
  Tracer t;
  {
    ScopedSpan span("too.late");
    Tracer::install(&t);
  }
  Tracer::uninstall();
  EXPECT_TRUE(t.events().empty());
}

TEST(ObsTrace, RunGroupSpansLandOnDistinctNamedTracks) {
  constexpr std::size_t kThreads = 4;
  Tracer t;
  Tracer::install(&t);
  {
    PML_OBS_SPAN("fanout");
    std::atomic<std::size_t> queue{0};
    util::TaskPool::instance().run_group(
        kThreads, "fanout.worker", [&](std::size_t ti) {
          set_thread_name(
              std::string("test-worker-").append(std::to_string(ti)));
          PML_OBS_SPAN("fanout.worker");
          // Claim a little work so the span bounds a real loop.
          while (queue.fetch_add(1) < 64) {
          }
        });
  }
  Tracer::uninstall();

  const std::vector<TraceEvent> evs = t.events();
  std::set<std::uint32_t> worker_tids;
  for (const TraceEvent& e : evs) {
    if (e.name == "fanout.worker") worker_tids.insert(e.tid);
  }
  // One span per worker, each on its own dense thread id — run_group
  // calls every slot body exactly once even on a single-core host.
  EXPECT_EQ(worker_tids.size(), kThreads);

  // The thread-name table feeds "M" metadata events in the JSON.
  std::set<std::string> named;
  std::ostringstream os;
  t.write(os);
  const testjson::Value parsed = testjson::parse(os.str());
  for (const testjson::Value& ev : parsed.at("traceEvents").items) {
    if (ev.at("ph").string != "M") continue;
    EXPECT_EQ(ev.at("name").string, "thread_name");
    named.insert(ev.at("args").at("name").string);
  }
  for (std::size_t ti = 0; ti < kThreads; ++ti) {
    EXPECT_TRUE(named.count(std::string("test-worker-").append(
                    std::to_string(ti))) == 1)
        << "missing thread name for worker " << ti;
  }
}

TEST(ObsTrace, WrittenJsonParsesBackWithRequiredFields) {
  Tracer t;
  Tracer::install(&t);
  {
    PML_OBS_SPAN("phase.one");
    { PML_OBS_SPAN(std::string("phase.one.sub \"quoted\\\" name")); }
  }
  { PML_OBS_SPAN("phase.two"); }
  Tracer::uninstall();

  Json other = Json::object();
  other.set("note", "parse-back test");
  std::ostringstream os;
  t.write(os, std::move(other));

  const testjson::Value doc = testjson::parse(os.str());
  ASSERT_TRUE(doc.is_object());
  EXPECT_EQ(doc.at("displayTimeUnit").string, "ms");
  EXPECT_EQ(doc.at("otherData").at("note").string, "parse-back test");

  std::size_t x_events = 0;
  std::set<std::string> names;
  for (const testjson::Value& ev : doc.at("traceEvents").items) {
    ASSERT_TRUE(ev.is_object());
    const std::string& ph = ev.at("ph").string;
    if (ph == "M") continue;
    ASSERT_EQ(ph, "X");
    ++x_events;
    names.insert(ev.at("name").string);
    EXPECT_TRUE(ev.at("tid").is_number());
    EXPECT_TRUE(ev.at("pid").is_number());
    EXPECT_TRUE(ev.at("ts").is_number());
    EXPECT_TRUE(ev.at("dur").is_number());
    EXPECT_GE(ev.at("ts").number, 0.0);
    EXPECT_GE(ev.at("dur").number, 0.0);
    EXPECT_EQ(ev.at("cat").string, "pml");
  }
  EXPECT_EQ(x_events, 3u);
  // The escaped-quote span name survives the round trip byte-exactly.
  EXPECT_EQ(names.count("phase.one.sub \"quoted\\\" name"), 1u);
}

}  // namespace
}  // namespace pml::obs
