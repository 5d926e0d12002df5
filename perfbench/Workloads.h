//===----------------------------------------------------------------------===//
///
/// \file
/// The benchmark's three workloads and the outside correctness checks they
/// run after every operation. NOTES.md says why each workload was chosen
/// and which end-to-end metric each layer metric should move.
///
//===----------------------------------------------------------------------===//

#ifndef JVOLVE_PERFBENCH_WORKLOADS_H
#define JVOLVE_PERFBENCH_WORKLOADS_H

#include "Harness.h"

#include "vm/VM.h"

#include <cstdint>
#include <map>
#include <memory>
#include <vector>

namespace perfbench {

//===--- heap_eager ---------------------------------------------------------===//

/// The seeded heap: which objects are Change, their i0 values, and the
/// index of the object each one's r0 links to.
struct HeapInputs {
  std::vector<uint8_t> IsChange;
  std::vector<int64_t> I0;
  std::vector<uint32_t> Target;
  int64_t I0Sum = 0;
  size_t NumChange = 0;

  static HeapInputs make(size_t Objects, uint64_t Seed);
};

/// The §4.1 microbenchmark program; \p Added gives Change its extra field.
jvolve::ClassSet heapProgram(bool Added);

/// Boots a VM running heapProgram(false) with the seeded heap in place.
std::unique_ptr<jvolve::VM> bootHeapVm(const HeapInputs &In);

/// Walks the holder array after an update. Each object must keep its
/// seeded i0 and r0 and have the current class of its kind; the added
/// field must exist exactly when \p Added and read 0; the object count
/// must be unchanged. One failed op is recorded on any violation.
void checkHeapOp(jvolve::VM &TheVM, const HeapInputs &In, bool Added,
                 Outcome &Out);

Outcome runHeapEager(const RunOptions &Opts, Tracer &Tr);

//===--- serve_jetty --------------------------------------------------------===//

/// Matches each response against the request it answers. A response must
/// equal 2 * request + the HttpResponse.make constant of the version that
/// serves it; a connection in flight across an update may see either
/// version's constant. A wrong value, an unexpected response and a request
/// left unanswered are each one failed op.
class ResponseChecker {
public:
  void expect(int Conn, const std::vector<int64_t> &Requests, int64_t Salt,
              int64_t AltSalt);
  void onResponse(int Conn, int64_t Value, Outcome &Out);
  /// Requests still unanswered.
  size_t outstanding() const { return Outstanding; }
  /// Counts every unanswered request as dropped.
  void finish(Outcome &Out);

private:
  struct Expected {
    std::vector<int64_t> Requests;
    size_t Next = 0;
    int64_t Salt = 0;
    int64_t AltSalt = 0;
  };
  std::map<int, Expected> Conns;
  size_t Outstanding = 0;
};

/// The constant HttpResponse.make adds in \p Program (read from bytecode).
int64_t responseSalt(const jvolve::ClassSet &Program);

Outcome runServeJetty(const RunOptions &Opts, Tracer &Tr);

//===--- ring_lazy ----------------------------------------------------------===//

Outcome runRingLazy(const RunOptions &Opts, Tracer &Tr);

} // namespace perfbench

#endif // JVOLVE_PERFBENCH_WORKLOADS_H
