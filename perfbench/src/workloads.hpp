// The four workloads. Each one sets up its inputs, runs its measured
// phase, records every check in ctx.checks and fills ctx.report: the
// end-to-end metrics in an untraced run, the per-layer metrics in a
// traced run.
#pragma once

#include "common.hpp"

namespace perfbench {

void run_oneshot_cold(Context& ctx);
void run_huge_ingest(Context& ctx);
void run_serve_mixed(Context& ctx);
void run_locality(Context& ctx);

}  // namespace perfbench
