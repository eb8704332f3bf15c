# Bad-input check for the command-line tools, run as `cmake -P` by the
# tool-errors ctest label.
#
# Inputs (all -D): TOOL_DIR (the directory holding eclp-run, eclp-serve,
# eclp-gen and eclp-convert), WORK_DIR (scratch directory, recreated every
# run).
#
# Every invocation below is a user error. Each tool must report it as
# "<tool>: <message>" on stderr and exit with code 2 — not abort with an
# uncaught exception (exit 134, "terminate called ..."). An unknown
# --algo must also fail before a --profile artifact is written.
foreach(var TOOL_DIR WORK_DIR)
  if(NOT DEFINED ${var})
    message(FATAL_ERROR "tool_errors.cmake needs -D${var}=...")
  endif()
endforeach()

set(ECLP_RUN "${TOOL_DIR}/eclp-run")
set(ECLP_SERVE "${TOOL_DIR}/eclp-serve")
set(ECLP_GEN "${TOOL_DIR}/eclp-gen")
set(ECLP_CONVERT "${TOOL_DIR}/eclp-convert")
file(REMOVE_RECURSE "${WORK_DIR}")
file(MAKE_DIRECTORY "${WORK_DIR}")

# expect_bad_input(<name> <tool> <message> COMMAND <argv...>): stderr must
# start with "<tool>: " and contain <message>.
function(expect_bad_input name tool message)
  cmake_parse_arguments(arg "" "" "COMMAND" ${ARGN})
  execute_process(COMMAND ${arg_COMMAND} WORKING_DIRECTORY "${WORK_DIR}"
                  RESULT_VARIABLE rc OUTPUT_VARIABLE out ERROR_VARIABLE err)
  if(NOT rc STREQUAL "2")
    message(FATAL_ERROR "${name}: expected exit code 2, got '${rc}':\n"
            "${out}\n${err}")
  endif()
  string(FIND "${err}" "${tool}: " prefix_at)
  string(FIND "${err}" "${message}" message_at)
  if(NOT prefix_at EQUAL 0 OR message_at EQUAL -1)
    message(FATAL_ERROR "${name}: stderr is not '${tool}: ...${message}...':\n"
            "${err}")
  endif()
  string(FIND "${err}" "terminate called" aborted)
  if(NOT aborted EQUAL -1)
    message(FATAL_ERROR "${name}: uncaught exception:\n${err}")
  endif()
endfunction()

expect_bad_input(run_scc_on_undirected eclp-run
  "scc needs a directed graph, rmat16.sym is undirected"
  COMMAND "${ECLP_RUN}" --algo=scc --input=rmat16.sym --scale=tiny)

file(WRITE "${WORK_DIR}/f.jsonl" "{\"algo\":\"nope\"}\n")
expect_bad_input(serve_unknown_algo eclp-serve "unknown algo 'nope'"
  COMMAND "${ECLP_SERVE}" --requests=${WORK_DIR}/f.jsonl)

expect_bad_input(gen_unknown_input eclp-gen "unknown input 'nope'"
  COMMAND "${ECLP_GEN}" --input=nope --out=${WORK_DIR}/x.eclg)

expect_bad_input(convert_missing_file eclp-convert "cannot open"
  COMMAND "${ECLP_CONVERT}" ${WORK_DIR}/missing.mtx ${WORK_DIR}/y.eclg)

expect_bad_input(run_unknown_algo eclp-run "unknown algo 'bogus'"
  COMMAND "${ECLP_RUN}" --algo=bogus --input=rmat16.sym --scale=tiny
          --profile=${WORK_DIR}/p.json)
foreach(artifact p.json p.trace.json)
  if(EXISTS "${WORK_DIR}/${artifact}")
    message(FATAL_ERROR "run_unknown_algo wrote ${artifact}")
  endif()
endforeach()
