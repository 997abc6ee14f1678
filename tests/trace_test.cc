// Trace subsystem tests: the disabled path must not allocate, the
// emitted file must be structurally valid Chrome trace-event JSON, and
// the instrumentation must record the paper's barrier timing (a 4-cycle
// G-line combine phase at 32 cores) without perturbing the simulation.
#include <gtest/gtest.h>

#include <atomic>
#include <cstdlib>
#include <fstream>
#include <map>
#include <new>
#include <sstream>
#include <string>
#include <vector>

#include "cmp/cmp_system.h"
#include "common/json.h"
#include "harness/experiment.h"
#include "trace/trace.h"
#include "workloads/livermore.h"
#include "workloads/synthetic.h"

// ---------------------------------------------------------------------------
// Global allocation counter. Linking these replacements into the test
// binary lets DisabledPathDoesNotAllocate assert the zero-cost claim
// the trace header makes.
namespace {
std::atomic<std::size_t> g_allocations{0};
}  // namespace

// The replacements pair malloc with free, which is correct for
// replaced global new/delete but -Wmismatched-new-delete cannot prove.
#pragma GCC diagnostic push
#pragma GCC diagnostic ignored "-Wmismatched-new-delete"
void* operator new(std::size_t size) {
  ++g_allocations;
  if (void* p = std::malloc(size ? size : 1)) return p;
  throw std::bad_alloc();
}
void* operator new[](std::size_t size) { return ::operator new(size); }
// The nothrow variants must be replaced too (libstdc++'s temporary
// buffers use them); otherwise ASan sees our malloc-backed delete
// freeing its own interceptor's new and reports a mismatch.
void* operator new(std::size_t size, const std::nothrow_t&) noexcept {
  ++g_allocations;
  return std::malloc(size ? size : 1);
}
void* operator new[](std::size_t size, const std::nothrow_t& tag) noexcept {
  return ::operator new(size, tag);
}
void operator delete(void* p) noexcept { std::free(p); }
void operator delete(void* p, const std::nothrow_t&) noexcept { std::free(p); }
void operator delete[](void* p, const std::nothrow_t&) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
void operator delete[](void* p) noexcept { std::free(p); }
void operator delete[](void* p, std::size_t) noexcept { std::free(p); }
#pragma GCC diagnostic pop

namespace glb {
namespace {

TEST(Trace, DisabledPathDoesNotAllocate) {
  ASSERT_FALSE(trace::Active());
  const std::size_t before = g_allocations.load();
  for (int i = 0; i < 1000; ++i) {
    GLB_TRACE_EVENT(trace::Sink().Instant("gl/ctx0", "retry", 42));
    GLB_TRACE_EVENT(trace::Sink().Complete(
        "core 0/l1", "GetS", 0, 5,
        trace::Args().Add("line", std::uint64_t{0x40}).json()));
    if (trace::Active()) {
      trace::Sink().CounterEvent("noc", "inflight", "packets", 0, 1);
    }
  }
  EXPECT_EQ(g_allocations.load() - before, 0u);
}

TEST(Trace, ArgsBuildsJsonObjects) {
  EXPECT_EQ(trace::Args().json(), "");
  EXPECT_EQ(trace::Args().Add("n", std::uint32_t{32}).Add("ok", true).json(),
            R"({"n":32,"ok":true})");
  EXPECT_EQ(trace::Args().Add("s", "a\"b").json(), R"({"s":"a\"b"})");
}

// Writes the sink and parses the result back.
json::Value WriteAndParse(const trace::TraceSink& sink) {
  std::ostringstream os;
  sink.Write(os);
  std::string err;
  auto v = json::Parse(os.str(), &err);
  EXPECT_TRUE(v.has_value()) << err;
  return v.value_or(json::Value{});
}

TEST(Trace, SinkEmitsValidTraceEventJson) {
  trace::TraceSink sink;
  sink.Complete("core 0/timeline", "busy", 10, 20);
  sink.Instant("gl/ctx0", "BarrierTimeout", 15,
               trace::Args().Add("arrived", std::uint32_t{3}).json());
  const auto id = sink.NextId();
  sink.AsyncBegin("noc/packets", "GetS 0->4", id, 12);
  sink.AsyncEnd("noc/packets", "GetS 0->4", id, 19);
  sink.CounterEvent("noc", "link 0E", "queued", 13, 2);
  EXPECT_EQ(sink.num_events(), 5u);

  const json::Value doc = WriteAndParse(sink);
  const json::Value* evs = doc.Find("traceEvents");
  ASSERT_NE(evs, nullptr);
  ASSERT_TRUE(evs->IsArray());

  int metadata = 0, spans = 0, instants = 0, asyncs = 0, counters = 0;
  for (const json::Value& e : evs->arr) {
    const std::string ph = e.StringOr("ph", "");
    ASSERT_NE(e.Find("pid"), nullptr);
    ASSERT_NE(e.Find("tid"), nullptr);
    ASSERT_NE(e.Find("ts"), nullptr);
    if (ph == "M") {
      ++metadata;
    } else if (ph == "X") {
      ++spans;
      EXPECT_DOUBLE_EQ(e.NumberOr("dur", -1.0), 10.0);
    } else if (ph == "i") {
      ++instants;
      EXPECT_EQ(e.StringOr("s", ""), "t");
      EXPECT_DOUBLE_EQ(e.Find("args")->NumberOr("arrived", 0.0), 3.0);
    } else if (ph == "b" || ph == "e") {
      ++asyncs;
      EXPECT_EQ(e.StringOr("cat", ""), "async");
      EXPECT_FALSE(e.StringOr("id", "").empty());
    } else if (ph == "C") {
      ++counters;
      EXPECT_DOUBLE_EQ(e.Find("args")->NumberOr("queued", 0.0), 2.0);
    }
  }
  // 4 tracks -> 4 thread_name entries + one process_name per process.
  EXPECT_GE(metadata, 4);
  EXPECT_EQ(spans, 1);
  EXPECT_EQ(instants, 1);
  EXPECT_EQ(asyncs, 2);
  EXPECT_EQ(counters, 1);
}

TEST(Trace, TracksSplitIntoProcessAndThread) {
  trace::TraceSink sink;
  sink.Instant("core 0/l1", "x", 0);
  sink.Instant("core 0/timeline", "y", 1);
  sink.Instant("standalone", "z", 2);
  const json::Value doc = WriteAndParse(sink);

  std::vector<std::string> process_names, thread_names;
  for (const json::Value& e : doc.Find("traceEvents")->arr) {
    if (e.StringOr("ph", "") != "M") continue;
    const std::string which = e.StringOr("name", "");
    const std::string name = e.Find("args")->StringOr("name", "");
    if (which == "process_name") process_names.push_back(name);
    if (which == "thread_name") thread_names.push_back(name);
  }
  EXPECT_EQ(process_names, (std::vector<std::string>{"core 0", "standalone"}));
  EXPECT_EQ(thread_names, (std::vector<std::string>{"l1", "timeline", "standalone"}));
}

struct TracedRun {
  Cycle cycles = 0;
  json::Value doc;
  bool parsed = false;
};

// Runs `workload` under the GL barrier with tracing on, returning the
// parsed trace. `trace` toggles the sink so callers can compare timing.
template <typename WorkloadT, typename... A>
TracedRun RunTraced(std::uint32_t cores, bool trace_on, A&&... wl_args) {
  // One file per test: ctest runs the Trace tests as parallel processes.
  const ::testing::TestInfo* test = ::testing::UnitTest::GetInstance()->current_test_info();
  const std::string path = ::testing::TempDir() + "/glb_trace_test_" +
                           test->test_suite_name() + "." + test->name() + ".json";
  TracedRun out;
  {
    trace::FileSession session(trace_on ? path : std::string{});
    cmp::CmpSystem sys(cmp::CmpConfig::WithCores(cores));
    WorkloadT wl(std::forward<A>(wl_args)...);
    wl.Init(sys);
    auto barrier = harness::MakeBarrier(harness::BarrierKind::kGL, sys);
    const sim::RunStatus status = sys.RunProgramsStatus(
        [&](core::Core& c, CoreId id) { return wl.Body(c, id, *barrier); },
        kCycleNever);
    EXPECT_TRUE(status.idle);
    out.cycles = sys.LastFinish();
  }
  if (trace_on) {
    std::ifstream f(path);
    std::stringstream ss;
    ss << f.rdbuf();
    std::string err;
    auto v = json::Parse(ss.str(), &err);
    EXPECT_TRUE(v.has_value()) << err;
    if (v) {
      out.doc = std::move(*v);
      out.parsed = true;
    }
  }
  return out;
}

TEST(Trace, GlCombinePhaseIsFourCyclesAt32Cores) {
  const TracedRun run = RunTraced<workloads::Synthetic>(32, true, 10u);
  ASSERT_TRUE(run.parsed);
  const json::Value* evs = run.doc.Find("traceEvents");
  ASSERT_NE(evs, nullptr);

  // Pair async b/e by (name, id); "combine" covers last arrival ->
  // first release, which the G-line network does in exactly 4 cycles
  // on the paper's 4x8 mesh (Figure 2).
  std::map<std::pair<std::string, std::string>, double> begin_ts;
  int episodes = 0, combines = 0;
  for (const json::Value& e : evs->arr) {
    if (e.StringOr("cat", "") != "async") continue;
    const std::string name = e.StringOr("name", "");
    const auto key = std::make_pair(name, e.StringOr("id", ""));
    if (e.StringOr("ph", "") == "b") {
      begin_ts[key] = e.NumberOr("ts", -1.0);
      if (name == "episode") ++episodes;
    } else if (e.StringOr("ph", "") == "e") {
      ASSERT_TRUE(begin_ts.count(key)) << "unmatched async end: " << name;
      if (name == "combine") {
        ++combines;
        EXPECT_DOUBLE_EQ(e.NumberOr("ts", -1.0) - begin_ts[key], 4.0);
      }
    }
  }
  // Synthetic runs 4 barriers per iteration.
  EXPECT_GT(episodes, 0);
  EXPECT_EQ(combines, episodes);
}

TEST(Trace, CoherenceAndNocActivityIsTraced) {
  // Kernel2 on 4 cores produces real loads/stores, so L1 misses,
  // directory transactions and NoC packets must all show up.
  const TracedRun run = RunTraced<workloads::Kernel2>(4, true, 64u, 2u);
  ASSERT_TRUE(run.parsed);

  bool saw_l1 = false, saw_dir = false, saw_noc_packet = false, saw_link = false,
       saw_core_timeline = false;
  for (const json::Value& e : run.doc.Find("traceEvents")->arr) {
    if (e.StringOr("ph", "") != "M" || e.StringOr("name", "") != "thread_name") {
      continue;
    }
    const std::string t = e.Find("args")->StringOr("name", "");
    if (t == "l1") saw_l1 = true;
    if (t == "timeline") saw_core_timeline = true;
    if (t == "packets") saw_noc_packet = true;
    if (t.rfind("link ", 0) == 0) saw_link = true;
    if (t.rfind("bank ", 0) == 0) saw_dir = true;
  }
  EXPECT_TRUE(saw_l1);
  EXPECT_TRUE(saw_dir);
  EXPECT_TRUE(saw_noc_packet);
  EXPECT_TRUE(saw_link);
  EXPECT_TRUE(saw_core_timeline);

  bool saw_gets = false;
  for (const json::Value& e : run.doc.Find("traceEvents")->arr) {
    const std::string name = e.StringOr("name", "");
    if (name.rfind("GetS @0x", 0) == 0 || name.rfind("GetX @0x", 0) == 0) {
      saw_gets = true;
      break;
    }
  }
  EXPECT_TRUE(saw_gets);
}

TEST(Trace, TracingDoesNotPerturbTiming) {
  const TracedRun off = RunTraced<workloads::Kernel2>(4, false, 64u, 2u);
  const TracedRun on = RunTraced<workloads::Kernel2>(4, true, 64u, 2u);
  EXPECT_EQ(off.cycles, on.cycles);
  ASSERT_FALSE(trace::Active());  // FileSession uninstalled on scope exit
}

}  // namespace
}  // namespace glb
