# ctest driver for perf_micro's row collection under repetitions.
#
# Runs one benchmark three times (--benchmark_repetitions=3), once with and
# once without --benchmark_report_aggregates_only=true, each with
# MEMOPT_JSON_DIR pointed at a fresh scratch directory, and requires each
# BENCH_perf.json to hold exactly one row, named after the benchmark.
#
# Invoked as:
#   cmake -DPERF_MICRO=<perf_micro-binary> -DPYTHON=<python3>
#         -DWORK_DIR=<scratch> -P check_perf_repetitions.cmake
foreach(var PERF_MICRO PYTHON WORK_DIR)
  if(NOT DEFINED ${var})
    message(FATAL_ERROR "check_perf_repetitions.cmake: missing -D${var}=...")
  endif()
endforeach()

set(name BM_FrequencyClustering)
file(REMOVE_RECURSE ${WORK_DIR})
file(MAKE_DIRECTORY ${WORK_DIR})
file(WRITE ${WORK_DIR}/check_rows.py [=[
import json
import sys

with open(sys.argv[1]) as f:
    names = [row["benchmark"] for row in json.load(f)["rows"]]
if names != [sys.argv[2]]:
    sys.exit(f"{sys.argv[1]}: expected one row named {sys.argv[2]}, got {names}")
]=])

foreach(aggregates_only false true)
  set(dir ${WORK_DIR}/${aggregates_only})
  file(MAKE_DIRECTORY ${dir})
  execute_process(
    COMMAND ${CMAKE_COMMAND} -E env MEMOPT_JSON_DIR=${dir}
            ${PERF_MICRO} --benchmark_filter=^${name}$ --benchmark_repetitions=3
            --benchmark_min_time=0.01
            --benchmark_report_aggregates_only=${aggregates_only}
    RESULT_VARIABLE rc OUTPUT_QUIET)
  if(NOT rc EQUAL 0)
    message(FATAL_ERROR "check_perf_repetitions.cmake: perf_micro failed (${rc}) with "
                        "--benchmark_report_aggregates_only=${aggregates_only}")
  endif()
  execute_process(COMMAND ${PYTHON} ${WORK_DIR}/check_rows.py ${dir}/BENCH_perf.json ${name}
                  RESULT_VARIABLE rc)
  if(NOT rc EQUAL 0)
    message(FATAL_ERROR "check_perf_repetitions.cmake: wrong rows with "
                        "--benchmark_report_aggregates_only=${aggregates_only}")
  endif()
endforeach()
