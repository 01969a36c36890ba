// Self-tests of the benchmark's own arithmetic: span self time, quantile
// ranks and the answer fingerprint. Exits non-zero on the first failure.
#include <cmath>
#include <cstdio>

#include "columnar/batch.h"
#include "stats.h"
#include "trace.h"

using namespace perfbench;
using namespace pocs::columnar;

namespace {

int failures = 0;

void Expect(bool ok, const char* what) {
  if (!ok) {
    std::fprintf(stderr, "FAIL: %s\n", what);
    ++failures;
  }
}

bool Near(double a, double b) { return std::fabs(a - b) < 1e-12; }

Span MakeSpan(double start, double end, int64_t parent) {
  return Span{"s", start, end, parent};
}

void TestSelfTime() {
  // root [0,10]; children [1,3] and [2,5] overlap (union [1,5]) and
  // [9,12] sticks out of the parent (clipped to [9,10]); a grandchild
  // [1.5,2] only reduces its own parent's self time.
  std::vector<Span> spans = {MakeSpan(0, 10, -1), MakeSpan(1, 3, 0),
                             MakeSpan(2, 5, 0), MakeSpan(9, 12, 0),
                             MakeSpan(1.5, 2, 1)};
  const auto self = SelfTimes(spans);
  Expect(Near(self[0], 10 - 4 - 1), "root self time = 10 - |[1,5]| - |[9,10]|");
  Expect(Near(self[1], 2 - 0.5), "child self time excludes its grandchild");
  Expect(Near(self[2], 3), "leaf self time is its duration");
  Expect(Near(self[4], 0.5), "grandchild leaf self time");
  // A span with no children keeps its whole duration.
  std::vector<Span> lone = {MakeSpan(2, 7, -1)};
  Expect(Near(SelfTimes(lone)[0], 5), "lone span self time");
}

void TestQuantiles() {
  std::vector<double> v;
  for (int i = 1; i <= 200; ++i) v.push_back(i);
  Expect(Quantile(v, 0.5) == 100, "median rank");
  Expect(Quantile(v, 0.95) == 190, "p95 rank");
}

RecordBatchPtr Batch(std::vector<int64_t> keys, std::vector<double> vals) {
  auto k = MakeColumn(TypeKind::kInt64);
  auto x = MakeColumn(TypeKind::kFloat64);
  for (size_t i = 0; i < keys.size(); ++i) {
    k->AppendInt64(keys[i]);
    x->AppendFloat64(vals[i]);
  }
  auto schema = MakeSchema({{"k", TypeKind::kInt64}, {"x", TypeKind::kFloat64}});
  return MakeBatch(schema, {k, x});
}

void TestFingerprint() {
  const auto a = ResultFingerprint(*Batch({1, 2, 3}, {0.1, 0.2, 0.3}));
  Expect(a == ResultFingerprint(*Batch({3, 1, 2}, {0.3, 0.1, 0.2})),
         "fingerprint ignores row order");
  Expect(a == ResultFingerprint(*Batch({1, 2, 3}, {0.1, 0.2, 0.30000000000000004})),
         "fingerprint tolerates last-bit rounding");
  Expect(a != ResultFingerprint(*Batch({1, 2, 3}, {0.1, 0.2, 0.31})),
         "fingerprint sees a changed value");
  Expect(a != ResultFingerprint(*Batch({1, 2, 3, 3}, {0.1, 0.2, 0.3, 0.3})),
         "fingerprint sees a duplicated row");
}

}  // namespace

int main() {
  TestSelfTime();
  TestQuantiles();
  TestFingerprint();
  if (failures == 0) std::printf("perfbench selftest: all passed\n");
  return failures == 0 ? 0 : 1;
}
