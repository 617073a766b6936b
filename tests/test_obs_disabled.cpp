// PML_OBS_DISABLED contract: with the macro defined before the obs
// headers, every instrumentation macro compiles to `(void)0` — no counter
// registration, no span recording — while the classes themselves stay
// fully usable (only the macros are gated, so mixed-TU builds have no ODR
// hazard).  This binary is the only TU in its test, so the registry must
// stay completely empty after heavy macro "use".

#define PML_OBS_DISABLED

#include <gtest/gtest.h>

#include "pml/obs/metrics.hpp"
#include "pml/obs/trace.hpp"

namespace pml::obs {
namespace {

TEST(ObsDisabled, MacrosAreNoOpsAndRegisterNothing) {
  for (int i = 0; i < 100000; ++i) {
    PML_OBS_COUNT("disabled.counter", 1);
    PML_OBS_SPAN("disabled.span");
  }
  EXPECT_TRUE(snapshot_metrics().counters.empty())
      << "a disabled macro registered a counter";
}

TEST(ObsDisabled, ZeroCounterInvariantUnderTracer) {
  // Even with a tracer installed, disabled macros record no spans.
  Tracer t;
  Tracer::install(&t);
  for (int i = 0; i < 1000; ++i) {
    PML_OBS_SPAN("disabled.traced_span");
    PML_OBS_COUNT("disabled.traced_counter", 7);
  }
  Tracer::uninstall();
  EXPECT_TRUE(t.events().empty());
  EXPECT_TRUE(snapshot_metrics().counters.empty());
}

TEST(ObsDisabled, ClassesRemainUsable) {
  // The explicit API is NOT gated: services that want always-on metrics
  // call it directly and it must keep working in disabled builds.
  Counter& c = counter("disabled.explicit");
  c.add(3);
  EXPECT_EQ(c.value(), 3u);
  Tracer tr;
  Tracer::install(&tr);
  { ScopedSpan span("disabled.explicit_span"); }
  Tracer::uninstall();
  EXPECT_EQ(tr.events().size(), 1u);
  EXPECT_EQ(tr.events()[0].name, "disabled.explicit_span");
}

}  // namespace
}  // namespace pml::obs
