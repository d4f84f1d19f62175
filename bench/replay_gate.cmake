# Replay gate: run BENCH twice and require byte-identical output.
#   cmake -DBENCH=<exe> -DMODE=<stdout|json> -DOUT=<path prefix>
#         -P replay_gate.cmake
# MODE=stdout compares what the bench prints; MODE=json compares the file
# `BENCH --smoke --json` writes. Both runs are kept at OUT.1 and OUT.2 for
# `diff -u` when the gate fails.
#
# Golden gate: run BENCH once and require its stdout to equal a checked-in
# file byte for byte.
#   cmake -DBENCH=<exe> -DMODE=golden -DGOLDEN=<file> -DOUT=<path prefix>
#         -P replay_gate.cmake
# The run is kept at OUT.1 for `diff -u GOLDEN OUT.1` when the gate fails.
if(MODE STREQUAL "golden")
  set(runs 1)
else()
  set(runs 1 2)
endif()
foreach(run ${runs})
  file(REMOVE "${OUT}.${run}")
  if(MODE STREQUAL "json")
    execute_process(COMMAND "${BENCH}" --smoke --json "${OUT}.${run}"
                    OUTPUT_QUIET RESULT_VARIABLE rc)
  else()
    execute_process(COMMAND "${BENCH}" OUTPUT_FILE "${OUT}.${run}"
                    RESULT_VARIABLE rc)
  endif()
  if(NOT rc EQUAL 0)
    message(FATAL_ERROR "${BENCH} (run ${run}) exited with ${rc}")
  endif()
endforeach()
if(MODE STREQUAL "golden")
  execute_process(COMMAND "${CMAKE_COMMAND}" -E compare_files
                  "${GOLDEN}" "${OUT}.1" RESULT_VARIABLE diverged)
  if(diverged)
    message(FATAL_ERROR "${BENCH} output differs from its golden: "
                        "diff -u ${GOLDEN} ${OUT}.1")
  endif()
  return()
endif()
execute_process(COMMAND "${CMAKE_COMMAND}" -E compare_files
                "${OUT}.1" "${OUT}.2" RESULT_VARIABLE diverged)
if(diverged)
  message(FATAL_ERROR "replay diverged between identical runs of ${BENCH}: "
                      "diff -u ${OUT}.1 ${OUT}.2")
endif()
