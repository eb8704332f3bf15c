// Whole-file reads and writes for artifacts and inputs.
//
// Every tool and library artifact that is produced as one string in memory
// (profiles, Perfetto traces, BENCH_*.json, response and stats files,
// trace logs, the Prometheus exposition) is written through write_file,
// and every input read whole (graph text, request JSONL, profiles) comes
// in through read_file, so the failure behaviour is the same everywhere.
// Writers that stream (graph savers), publish atomically (the .eclg cache
// store's temp file + rename) or append (the telemetry JSONL series) keep
// their own std::ofstream.
#pragma once

#include <string>
#include <string_view>

namespace eclp {

/// The bytes of `path`. Throws CheckFailure "cannot open <path>" when the
/// file cannot be opened.
std::string read_file(const std::string& path);

/// Replace `path` with `body`. On failure prints "cannot write <path>" on
/// stderr and returns false; callers that must fail wrap the call in
/// ECLP_CHECK_MSG.
bool write_file(const std::string& path, std::string_view body);

}  // namespace eclp
