// Self-tests of the benchmark's own measuring code: percentiles, failed-op
// accounting, span nesting and self time, and the metric sink. Exits
// nonzero on the first failing case. Run through `run.py --self-test`,
// which also checks the catalogue against BENCHMARK.json.

#include <cmath>
#include <cstdio>
#include <string>
#include <thread>
#include <vector>

#include "cplabench/report.hpp"
#include "cplabench/trace.hpp"

namespace {

int failures = 0;

void check(bool ok, const char* what) {
  std::printf("%s %s\n", ok ? "ok  " : "FAIL", what);
  if (!ok) ++failures;
}

bool near(double a, double b) { return std::fabs(a - b) < 1e-9; }

void test_percentile() {
  std::vector<double> v;
  for (int i = 100; i >= 1; --i) v.push_back(i);  // 1..100, unsorted
  check(near(cplabench::percentile(v, 50.0), 50.5), "p50 of 1..100 is 50.5");
  check(near(cplabench::percentile(v, 90.0), 90.1), "p90 of 1..100 is 90.1");
  int beyond = 0;
  for (double x : v) beyond += x > cplabench::percentile(v, 90.0) ? 1 : 0;
  check(beyond == 10, "p90 of 100 samples has 10 samples beyond it");
  check(near(cplabench::median({3.0, 1.0, 2.0}), 2.0), "median of an odd sample");
  check(cplabench::percentile({}, 50.0) == 0.0, "percentile of no samples is 0");
}

void test_failed_op_counting() {
  cplabench::OpLedger ledger;
  for (int op = 0; op < 5; ++op) {
    cplabench::OpChecks checks;
    checks.expect(true, "always holds");
    checks.expect(op != 2, "injected failure on op 3");  // the injected failing check
    ledger.book(checks);
  }
  check(ledger.attempted() == 5, "every op is counted as attempted");
  check(ledger.failed() == 1, "the op with the injected failing check is counted failed");
  cplabench::OpChecks two;
  two.expect(false, "first");
  two.expect(false, "second");
  ledger.book(two);
  check(ledger.failed() == 2 && ledger.attempted() == 6,
        "an op failing two checks counts once, and the run goes on");
}

void test_span_nesting() {
  cplabench::Tracer tracer(true);
  int root = -1, child = -1, worker_span = -1;
  {
    cplabench::ScopedSpan r(tracer, "root");
    root = r.id();
    tracer.set_ambient(root);
    {
      cplabench::ScopedSpan c(tracer, "child");
      child = c.id();
      cplabench::ScopedSpan g(tracer, "grandchild");
    }
    std::thread worker([&] {
      cplabench::ScopedSpan w(tracer, "worker");
      worker_span = w.id();
    });
    worker.join();
    tracer.set_ambient(-1);
  }
  const std::vector<cplabench::Span> spans = tracer.spans();
  check(spans.size() == 4, "four spans recorded");
  check(spans[1].parent == root && spans[2].parent == child, "same-thread spans nest");
  check(spans[static_cast<std::size_t>(worker_span)].parent == root,
        "a span on a thread with no open span takes the ambient parent");
  const cplabench::SelfTimes self = cplabench::compute_self_times(spans);
  check(self.violations == 0, "recorded spans pass the nesting check");
  for (const cplabench::Span& s : spans) {
    check(self.self_ns[static_cast<std::size_t>(s.id)] >= 0 &&
              self.self_ns[static_cast<std::size_t>(s.id)] <= s.duration_ns(),
          ("self time within duration: " + s.name).c_str());
  }

  // Hand-built spans: overlapping children count once; a child outside its
  // parent is a violation.
  std::vector<cplabench::Span> manual(4);
  manual[0] = {0, -1, "p", 0, 100, 1};
  manual[1] = {1, 0, "a", 10, 50, 1};
  manual[2] = {2, 0, "b", 30, 70, 2};  // overlaps a (parallel child)
  manual[3] = {3, 1, "c", 20, 40, 1};
  cplabench::SelfTimes ms = cplabench::compute_self_times(manual);
  check(ms.violations == 0 && ms.self_ns[0] == 40, "self = 100 - |[10,70)| = 40");
  check(ms.self_ns[1] == 20, "child self = 40 - 20 = 20");
  manual[3].end_ns = 60;  // c now ends after its parent a
  ms = cplabench::compute_self_times(manual);
  check(ms.violations == 1, "a child reaching outside its parent is a violation");
  const auto rows = cplabench::layer_table(manual, ms);
  check(rows.size() == 4 && rows.at("p").count == 1, "layer table has one row per span name");
}

void test_metric_sink() {
  cplabench::MetricSink sink({{"wall_s", "s"}, {"ops", "count"}});
  check(sink.set("wall_s", 1.25), "declared metric accepted");
  check(!sink.set("bogus", 1.0) && sink.errors().size() == 1, "undeclared metric rejected");
  check(sink.missing().size() == 1 && sink.missing()[0] == "ops", "unset metric reported");
  const std::string json = sink.json(true, 3, 0);
  check(json.find("\"wall_s\": {\"value\": 1.25, \"unit\": \"s\"}") != std::string::npos,
        "metric printed with value and unit");
  check(json.rfind("{\"correct\": true, \"attempted\": 3, \"failed\": 0", 0) == 0,
        "result line starts with correct/attempted/failed");
}

}  // namespace

int main() {
  test_percentile();
  test_failed_op_counting();
  test_span_nesting();
  test_metric_sink();
  std::printf("%s (%d failing)\n", failures == 0 ? "self-test passed" : "self-test FAILED",
              failures);
  return failures == 0 ? 0 : 1;
}
