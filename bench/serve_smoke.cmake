# Test driver for the serve-smoke ctest family: runs bench/serving with
# --json, relying on the bench's built-in acceptance checks (zero count
# drift vs. a from-scratch recount; every tip answer at the final epoch equal
# to a recount; nonzero cache hits in normal mode, which the top-pairs reads
# above K' = 64 supply (--top-k 65: a pass whose answer caches); nonzero
# shed/rejected/expired work in overload mode; latency histograms that count
# every query but the shed ones), then validates the RunReport artifact with
# report_lint.
# Expects -DBENCH=<path> -DLINT=<path> -DOUT=<dir>; optional -DMODE= and
# -DREGISTRY=<metrics.registry> (adds --families to the OpenMetrics lint so
# dump families must map back to the bfc-analyze registry)
#   full      (default) the standard smoke load
#   light     reduced load for the sanitizer lanes, where slowdown makes the
#             full config's wall-clock latency numbers flaky
#   overload  undersized pool + bounded queue: proves admission control
#             sheds and the count still reconciles. Only a top-pairs read
#             above K' = 64 (--top-k 65) queues: every other read answers on
#             the reader's thread
#   telemetry overload load with the whole telemetry plane armed: the
#             OpenMetrics dump must lint clean (svc.slo.* included), the
#             span tree must show shed requests (the bench self-checks
#             that), its Chrome trace must lint clean (events nest on each
#             track) and hold tagged request spans, and the folded profile
#             must attribute samples to a la/ kernel
#   shard     4 range-partitioned stores with one concurrent writer per
#             shard, under overload + Zipf key skew. The bench self-checks
#             zero count drift against a sequential --shards 1 replay and
#             overlapping per-shard publish spans; the OpenMetrics dump must
#             then lint clean with dense svc_shard_<k>_* families, and the
#             Chrome trace with tagged request spans
#   chaos     4 out-of-process shard hosts (needs -DHOST=<bfc-shard-host>);
#             one is SIGKILLed mid-load. The bench self-checks failure-domain
#             isolation: zero failed queries, dead range stale-tagged while
#             healthy ranges stay exact, exactly one supervised restart, and
#             zero drift after the recovery replay. No --trace here: the
#             publish spans land inside the host processes, so the overlap
#             self-check has nothing to see client-side.
file(MAKE_DIRECTORY "${OUT}")
set(report "${OUT}/serving_report.json")

# The shard/chaos/telemetry lanes additionally assert on the OpenMetrics
# dump, trace and profile; a -DBFC_METRICS=OFF build compiles that whole
# plane out (empty dumps by design), so those lanes keep only the bench's
# built-in acceptance checks (drift, isolation, recovery, shed evidence).
# The driver passes -DMETRICS=${BFC_METRICS}; when undefined, assume ON.
set(check_telemetry TRUE)
if(DEFINED METRICS AND NOT METRICS)
  set(check_telemetry FALSE)
  message(STATUS "BFC_METRICS=OFF build: skipping telemetry artifact checks")
endif()

if(NOT DEFINED MODE)
  set(MODE full)
endif()
if(MODE STREQUAL "light")
  set(load --scale 0.02 --readers 2 --epochs 2 --batch 40 --queries 40
           --pool 2 --top-k 65)
elseif(MODE STREQUAL "overload")
  # A queued read's answer caches per view, so with the default 5 ms
  # deadline the reads queue only in the burst after each publish, until
  # the first pass lands; on a busy runner the readers fell out of step and
  # nothing shed in 1 of 4 full ctest runs. A 10 us deadline is shorter than
  # any pass: every pass is abandoned at dequeue or cancelled, nothing
  # caches, every top-pairs read queues, and the bounded queue overflows.
  set(load --overload --scale 0.02 --readers 6 --epochs 3 --batch 60
           --queries 1000 --mix tip:3,global:1,edge:3,top:3 --top-k 65
           --pool 1 --max-queue 2 --deadline-ms 0.01)
elseif(MODE STREQUAL "shard")
  # The mix, the query count, --top-k and the deadline as for
  # MODE=overload: every view carries its cross aggregate, so tip, global
  # and top-64 queries answer inline, and edge support is a row scan on the
  # reader's thread.
  set(load --shards 4 --zipf 0.9 --overload --scale 0.02 --readers 6
           --epochs 3 --batch 60 --queries 400 --mix tip:3,global:1,edge:3,top:3
           --top-k 65 --pool 1 --max-queue 2
           --deadline-ms 0.01
           --metrics-file "${OUT}/metrics.txt"
           --trace "${OUT}/trace.json")
elseif(MODE STREQUAL "chaos")
  if(NOT DEFINED HOST)
    message(FATAL_ERROR "MODE=chaos needs -DHOST=<path to bfc-shard-host>")
  endif()
  # --top-k 65 for the cache hits the bench demands: tip, global and
  # top-64 reads answer inline and cache nothing.
  set(load --shards 4 --kill-shard 2@mid --host-bin "${HOST}" --scale 0.02
           --readers 4 --epochs 6 --batch 60 --queries 200 --pool 2 --top-k 65
           --metrics-file "${OUT}/metrics.txt")
elseif(MODE STREQUAL "telemetry")
  # The mix, the query count and the deadline as for MODE=overload.
  set(load --overload --scale 0.05 --readers 6 --epochs 10 --batch 60
           --queries 1000 --mix tip:3,global:1,edge:3,top:3 --top-k 65
           --pool 1 --max-queue 2 --deadline-ms 0.01 --slo-ms 5
           --metrics-file "${OUT}/metrics.txt"
           --trace "${OUT}/trace.json"
           --profile-hz 250 --profile-out "${OUT}/profile.folded"
           --flight-out "${OUT}/flight.json")
else()
  set(load --scale 0.02 --readers 3 --epochs 4 --batch 60 --queries 80
           --pool 3 --top-k 65)
endif()

# The --trace file of a shard or telemetry load: Chrome trace events that
# report_lint accepts (each carrying its trace, span and parent ids under
# args), among them request spans with their decision tags.
function(check_request_trace)
  execute_process(
    COMMAND "${LINT}" --trace "${OUT}/trace.json"
    RESULT_VARIABLE rc
    OUTPUT_VARIABLE out
    ERROR_VARIABLE err)
  if(NOT rc EQUAL 0)
    message(FATAL_ERROR "trace lint failed (rc=${rc}):\n${out}\n${err}")
  endif()
  message(STATUS "${out}")
  file(READ "${OUT}/trace.json" trace_text)
  foreach(want "\"name\": \"svc\\.query\\.[a-z_0-9]+\""
               "\"outcome\": \"(exact|stale|shed)\"")
    if(NOT trace_text MATCHES "${want}")
      message(FATAL_ERROR "trace.json holds nothing matching ${want}")
    endif()
  endforeach()
endfunction()

execute_process(
  COMMAND "${BENCH}" ${load} --json "${report}"
  RESULT_VARIABLE rc
  OUTPUT_VARIABLE out
  ERROR_VARIABLE err)
if(NOT rc EQUAL 0)
  message(FATAL_ERROR "serving bench (${MODE}) failed (rc=${rc}):\n${out}\n${err}")
endif()

execute_process(
  COMMAND "${LINT}" --report "${report}"
  RESULT_VARIABLE rc
  OUTPUT_VARIABLE out
  ERROR_VARIABLE err)
if(NOT rc EQUAL 0)
  message(FATAL_ERROR "report_lint failed (rc=${rc}):\n${out}\n${err}")
endif()
message(STATUS "${out}")

if(MODE STREQUAL "shard" AND check_telemetry)
  # The OpenMetrics dump must lint clean (report_lint additionally enforces
  # that per-shard svc_shard_<k>_* families form a dense 0..N-1 range) and
  # actually carry the per-shard plane.
  set(families_args)
  if(DEFINED REGISTRY)
    set(families_args --families "${REGISTRY}")
  endif()
  execute_process(
    COMMAND "${LINT}" --openmetrics "${OUT}/metrics.txt" ${families_args}
    RESULT_VARIABLE rc
    OUTPUT_VARIABLE out
    ERROR_VARIABLE err)
  if(NOT rc EQUAL 0)
    message(FATAL_ERROR "openmetrics lint failed (rc=${rc}):\n${out}\n${err}")
  endif()
  message(STATUS "${out}")
  file(READ "${OUT}/metrics.txt" metrics_text)
  if(NOT metrics_text MATCHES "svc_shard_")
    message(FATAL_ERROR "OpenMetrics dump has no svc_shard_* instruments")
  endif()

  # The bench self-checked the span tree and the overlap of per-shard
  # publishes; the trace it wrote must hold them.
  check_request_trace()
endif()

if(MODE STREQUAL "chaos" AND check_telemetry)
  # The chaos bench self-checked isolation/recovery/drift; the OpenMetrics
  # dump must additionally lint clean against the registry and carry the
  # failure-domain instruments the run just exercised.
  set(families_args)
  if(DEFINED REGISTRY)
    set(families_args --families "${REGISTRY}")
  endif()
  execute_process(
    COMMAND "${LINT}" --openmetrics "${OUT}/metrics.txt" ${families_args}
    RESULT_VARIABLE rc
    OUTPUT_VARIABLE out
    ERROR_VARIABLE err)
  if(NOT rc EQUAL 0)
    message(FATAL_ERROR "openmetrics lint failed (rc=${rc}):\n${out}\n${err}")
  endif()
  message(STATUS "${out}")
  file(READ "${OUT}/metrics.txt" metrics_text)
  foreach(family svc_remote_retries svc_supervisor_restarts
          svc_shard_2_circuit_state svc_shard_2_unavailable)
    if(NOT metrics_text MATCHES "${family}")
      message(FATAL_ERROR "OpenMetrics dump is missing ${family}")
    endif()
  endforeach()
endif()

if(MODE STREQUAL "telemetry" AND check_telemetry)
  # The OpenMetrics dump must lint clean and carry the SLO instruments.
  set(families_args)
  if(DEFINED REGISTRY)
    set(families_args --families "${REGISTRY}")
  endif()
  execute_process(
    COMMAND "${LINT}" --openmetrics "${OUT}/metrics.txt" ${families_args}
    RESULT_VARIABLE rc
    OUTPUT_VARIABLE out
    ERROR_VARIABLE err)
  if(NOT rc EQUAL 0)
    message(FATAL_ERROR "openmetrics lint failed (rc=${rc}):\n${out}\n${err}")
  endif()
  message(STATUS "${out}")
  file(READ "${OUT}/metrics.txt" metrics_text)
  if(NOT metrics_text MATCHES "svc_slo_")
    message(FATAL_ERROR "OpenMetrics dump has no svc_slo_* instruments")
  endif()

  # The folded profile must be non-empty and attribute samples to the
  # linear-algebra counting kernels (the bench repeats the la/ recount
  # inside the sampling window for exactly this reason).
  file(READ "${OUT}/profile.folded" folded_text)
  if(folded_text STREQUAL "")
    message(FATAL_ERROR "folded profile is empty")
  endif()
  if(NOT folded_text MATCHES "bfc::la::")
    message(FATAL_ERROR "folded profile attributes no samples to la/ kernels")
  endif()

  # The bench self-checked the span tree; the trace it wrote must hold it.
  check_request_trace()

  # The flight ring must have materialised on disk as non-empty JSON.
  file(READ "${OUT}/flight.json" text)
  if(text STREQUAL "")
    message(FATAL_ERROR "flight.json is empty")
  endif()
endif()
