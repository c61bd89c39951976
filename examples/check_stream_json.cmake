# ctest driver for the streaming trace pipeline's CLI contract.
#
# The same partition study is run four ways — materialized from a text
# trace written by `trace` (a text file opens as an in-memory trace), and
# streamed with --trace-stream at --jobs 1 and --jobs 8 and from an .mtsc
# container at a non-default --chunk-size — and the "results" sections of
# all four memopt.report.v1 documents must be bit-identical: streaming must
# change memory behaviour, never results.
#
# Invoked as:
#   cmake -DCLI=<memopt_cli> -DPYTHON=<python3> -DWORK_DIR=<scratch>
#         -P check_stream_json.cmake
foreach(var CLI PYTHON WORK_DIR)
  if(NOT DEFINED ${var})
    message(FATAL_ERROR "check_stream_json.cmake: missing -D${var}=...")
  endif()
endforeach()

file(MAKE_DIRECTORY ${WORK_DIR})

function(run_checked)
  execute_process(COMMAND ${ARGN} RESULT_VARIABLE rc OUTPUT_QUIET)
  if(NOT rc EQUAL 0)
    message(FATAL_ERROR "check_stream_json.cmake: command failed (${rc}): ${ARGN}")
  endif()
endfunction()

set(SPEC "synthetic:hotspot,span=65536,n=300000,seed=17,write=0.3,hotspots=4,hotspot-bytes=2048,hot-frac=0.8")

# Write the spec out as a text trace and as a compressed container, then
# round-trip both.
run_checked(${CLI} trace ${SPEC} ${WORK_DIR}/trace.txt)
run_checked(${CLI} trace ${SPEC} ${WORK_DIR}/trace.mtsc --compress 1)
run_checked(${CLI} partition ${WORK_DIR}/trace.txt --cluster affinity
            --json ${WORK_DIR}/materialized.json)
run_checked(${CLI} partition --trace-stream ${SPEC} --cluster affinity --jobs 1
            --json ${WORK_DIR}/stream_j1.json)
run_checked(${CLI} partition --trace-stream ${SPEC} --cluster affinity --jobs 8
            --json ${WORK_DIR}/stream_j8.json)
run_checked(${CLI} partition --trace-stream ${WORK_DIR}/trace.mtsc --cluster affinity
            --chunk-size 4096 --json ${WORK_DIR}/stream_mtsc.json)

file(WRITE ${WORK_DIR}/compare_stream.py [=[
import json
import sys

docs = []
for path in sys.argv[1:]:
    with open(path) as f:
        doc = json.load(f)
    for key in ("schema", "command", "results", "metrics"):
        if key not in doc:
            sys.exit(f"{path}: missing top-level key: {key}")
    if doc["schema"] != "memopt.report.v1":
        sys.exit(f"{path}: unexpected schema: {doc['schema']}")
    docs.append(doc)
base = docs[0]["results"]
for path, doc in zip(sys.argv[2:], docs[1:]):
    if doc["results"] != base:
        sys.exit(f"{path}: results differ from the materialized run")
]=])
run_checked(${PYTHON} ${WORK_DIR}/compare_stream.py
            ${WORK_DIR}/materialized.json ${WORK_DIR}/stream_j1.json
            ${WORK_DIR}/stream_j8.json ${WORK_DIR}/stream_mtsc.json)
