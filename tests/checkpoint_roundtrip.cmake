# CLI checkpoint round trip (ctest: checkpoint_cli_roundtrip).
#
# For each run mode, compares an unbroken majc_run against one that was
# stopped at a packet cap while checkpointing periodically, then restored
# from the surviving checkpoint and run to completion. The stats JSON of
# both runs — cycles, packets, recovery counters, arch_digest — must be
# byte-identical. The unbroken cycle and chip runs are also pinned byte for
# byte against GOLDEN_DIR/roundtrip_<mode>.stats.json, so a refactor of the
# machine classes cannot move guest-visible statistics unnoticed.
#
# Invoked in script mode with:
#   -DMAJC_RUN=<path to majc_run>  -DWORK_DIR=<scratch dir>
#   -DGOLDEN_DIR=<dir holding the pinned stats JSON>

if(NOT DEFINED MAJC_RUN OR NOT DEFINED WORK_DIR OR NOT DEFINED GOLDEN_DIR)
  message(FATAL_ERROR
          "checkpoint_roundtrip.cmake needs -DMAJC_RUN, -DWORK_DIR and -DGOLDEN_DIR")
endif()

file(REMOVE_RECURSE "${WORK_DIR}")
file(MAKE_DIRECTORY "${WORK_DIR}")

# A store loop long enough (~10k packets) that --max-packets=1500 stops it
# mid-flight with several checkpoints already written.
file(WRITE "${WORK_DIR}/prog.s" [[
    .data
  buf: .space 64
    .code
    sethi g3, %hi(buf)
    orlo g3, %lo(buf)
    setlo g5, 2000
    setlo g6, 0
  loop:
    add g6, g6, g5
    stwi g6, g3, 0
    addi g5, g5, -1
    bnz g5, loop
    trap g0, g6, 0
    halt
]])

# majc_run exits 0 on halt, 1 on a packet-cap/watchdog/trap stop, 2 on hard
# errors. The checkpointed leg stops at the cap by design, so `max_rc`
# names the worst acceptable exit per call.
function(run_majc max_rc out_json)
  execute_process(
    COMMAND "${MAJC_RUN}" ${ARGN} "--stats-json=${out_json}"
            "${WORK_DIR}/prog.s"
    RESULT_VARIABLE rc
    OUTPUT_VARIABLE out
    ERROR_VARIABLE err)
  if(rc GREATER ${max_rc})
    message(FATAL_ERROR "majc_run ${ARGN} failed (rc=${rc}):\n${out}\n${err}")
  endif()
endfunction()

foreach(mode_flag IN ITEMS "" "-f" "-2")
  if(mode_flag STREQUAL "")
    set(tag "cycle")
    set(flags "")
  else()
    if(mode_flag STREQUAL "-f")
      set(tag "functional")
    else()
      set(tag "chip")
    endif()
    set(flags "${mode_flag}")
  endif()

  set(golden "${WORK_DIR}/${tag}_golden.json")
  set(partial "${WORK_DIR}/${tag}_partial.json")
  set(resumed "${WORK_DIR}/${tag}_resumed.json")
  set(ckpt "${WORK_DIR}/${tag}.ckpt")

  run_majc(0 "${golden}" ${flags})
  if(NOT tag STREQUAL "functional")
    set(pinned "${GOLDEN_DIR}/roundtrip_${tag}.stats.json")
    execute_process(
      COMMAND "${CMAKE_COMMAND}" -E compare_files "${pinned}" "${golden}"
      RESULT_VARIABLE pin_diff)
    if(NOT pin_diff EQUAL 0)
      message(FATAL_ERROR "${tag}: stats differ from the pinned ${pinned} "
                          "(got ${golden})")
    endif()
  endif()
  run_majc(1 "${partial}" ${flags} "--checkpoint-out=${ckpt}"
           "--checkpoint-every=500" "--max-packets=1500")
  if(NOT EXISTS "${ckpt}")
    message(FATAL_ERROR "${tag}: no checkpoint written")
  endif()
  run_majc(0 "${resumed}" ${flags} "--restore=${ckpt}")

  execute_process(
    COMMAND "${CMAKE_COMMAND}" -E compare_files "${golden}" "${resumed}"
    RESULT_VARIABLE diff)
  if(NOT diff EQUAL 0)
    message(FATAL_ERROR "${tag}: restored stats differ from unbroken run "
                        "(${golden} vs ${resumed})")
  endif()
  message(STATUS "${tag}: restored run byte-identical to unbroken run")
endforeach()

# Negative legs: a checkpoint records the machine's CPU count, so a -2
# checkpoint must not restore into a single-CPU run, nor the reverse. Each
# refusal is a usage error (exit 2) naming the mismatch.
function(expect_refused from)
  execute_process(
    COMMAND "${MAJC_RUN}" ${ARGN} "--restore=${WORK_DIR}/${from}.ckpt"
            "${WORK_DIR}/prog.s"
    RESULT_VARIABLE rc
    OUTPUT_VARIABLE out
    ERROR_VARIABLE err)
  if(NOT rc EQUAL 2 OR NOT err MATCHES "mismatch")
    message(FATAL_ERROR "restoring the ${from} checkpoint with '${ARGN}' must "
                        "exit 2 with a mismatch error (rc=${rc}):\n${err}")
  endif()
  message(STATUS "${from} checkpoint refused with '${ARGN}': ${err}")
endfunction()

expect_refused(chip)
expect_refused(cycle -2)
