# Test driver for the `validate-report` ctest: runs one bench binary at tiny
# scale with --json/--trace, then checks both artifacts with report_lint.
# Expects -DBENCH=<path> -DLINT=<path> -DOUT=<dir>; optional -DMETRICS=
# (the BFC_METRICS setting; when undefined, assume ON).
file(MAKE_DIRECTORY "${OUT}")
set(report "${OUT}/validate_report.json")
set(trace "${OUT}/validate_trace.json")

execute_process(
  COMMAND "${BENCH}" --scale 0.02 --reps 2 --json "${report}" --trace "${trace}"
  RESULT_VARIABLE rc
  OUTPUT_VARIABLE out
  ERROR_VARIABLE err)
if(NOT rc EQUAL 0)
  message(FATAL_ERROR "bench failed (rc=${rc}):\n${out}\n${err}")
endif()

execute_process(
  COMMAND "${LINT}" --report "${report}" --trace "${trace}"
  RESULT_VARIABLE rc
  OUTPUT_VARIABLE out
  ERROR_VARIABLE err)
if(NOT rc EQUAL 0)
  message(FATAL_ERROR "report_lint failed (rc=${rc}):\n${out}\n${err}")
endif()
message(STATUS "${out}")

# A schema-valid trace can still be empty. With spans compiled in it must
# hold the dataset phase and at least one cell, named by its report label
# (`<dataset>/Inv. <n>`); a BFC_METRICS=OFF build writes no events.
if(DEFINED METRICS AND NOT METRICS)
  message(STATUS "BFC_METRICS=OFF build: the trace has no events by design")
  return()
endif()
file(READ "${trace}" trace_text)
foreach(event "bench\\.make_datasets" "[^\"]+/Inv\\. [1-8]")
  if(NOT trace_text MATCHES "\"name\": \"${event}\"")
    message(FATAL_ERROR "trace has no event named ${event}")
  endif()
endforeach()
