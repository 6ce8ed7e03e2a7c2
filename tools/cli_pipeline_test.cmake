# Drives progres_cli through the full pipeline and fails on any error.
file(MAKE_DIRECTORY ${WORK})

function(run_cli)
  execute_process(COMMAND ${CLI} ${ARGN} RESULT_VARIABLE code
                  OUTPUT_VARIABLE out ERROR_VARIABLE err)
  if(NOT code EQUAL 0)
    message(FATAL_ERROR "progres_cli ${ARGN} failed (${code}): ${out}${err}")
  endif()
  message(STATUS "${out}")
endfunction()

run_cli(generate --kind=publications --entities=2000 --seed=7
        --out=${WORK}/data.tsv --truth=${WORK}/truth.tsv)
run_cli(generate --kind=publications --entities=500 --seed=8
        --out=${WORK}/train.tsv --truth=${WORK}/train_truth.tsv)
run_cli(stats --data=${WORK}/data.tsv --out=${WORK}/forests.tsv)
run_cli(resolve --data=${WORK}/data.tsv --train=${WORK}/train.tsv
        --train-truth=${WORK}/train_truth.tsv --machines=4
        --out=${WORK}/pairs.tsv)
run_cli(resolve --data=${WORK}/data.tsv --basic --machines=4
        --out=${WORK}/pairs_basic.tsv)
run_cli(explain --data=${WORK}/data.tsv --train=${WORK}/train.tsv
        --train-truth=${WORK}/train_truth.tsv --machines=4 --blocks=3)
run_cli(evaluate --pairs=${WORK}/pairs.tsv --truth=${WORK}/truth.tsv)

# Tracing is observational: a traced resolve writes both exports and the
# resolved pairs stay byte-identical to the untraced run.
run_cli(resolve --data=${WORK}/data.tsv --basic --machines=4
        --out=${WORK}/pairs_traced.tsv --trace-out=${WORK}/trace.json
        --trace-timeline=${WORK}/timeline.txt)
foreach(artifact trace.json timeline.txt)
  if(NOT EXISTS ${WORK}/${artifact})
    message(FATAL_ERROR "traced resolve did not write ${artifact}")
  endif()
endforeach()
execute_process(COMMAND ${CMAKE_COMMAND} -E compare_files
                ${WORK}/pairs_basic.tsv ${WORK}/pairs_traced.tsv
                RESULT_VARIABLE same)
if(NOT same EQUAL 0)
  message(FATAL_ERROR "tracing changed the resolved pairs")
endif()

# An unwritable --trace-out must fail fast with a labelled error.
execute_process(COMMAND ${CLI} resolve --data=${WORK}/data.tsv --basic
                --machines=4 --out=${WORK}/pairs_reject.tsv
                --trace-out=${WORK}/missing_dir/trace.json
                RESULT_VARIABLE code OUTPUT_VARIABLE out ERROR_VARIABLE err)
if(code EQUAL 0)
  message(FATAL_ERROR "unwritable --trace-out was accepted")
endif()
if(NOT err MATCHES "invalid trace config")
  message(FATAL_ERROR "unwritable --trace-out error not labelled: ${err}")
endif()
message(STATUS "unwritable --trace-out rejected: ${err}")

# An unwritable --spill-dir must be rejected up front, not at the first
# spill of a long run: point it at a regular file.
file(WRITE ${WORK}/spill_blocker "x")
execute_process(COMMAND ${CLI} resolve --data=${WORK}/data.tsv --basic
                --machines=4 --out=${WORK}/pairs_reject.tsv
                --spill-dir=${WORK}/spill_blocker
                RESULT_VARIABLE code OUTPUT_VARIABLE out ERROR_VARIABLE err)
if(code EQUAL 0)
  message(FATAL_ERROR "unwritable --spill-dir was accepted")
endif()
if(NOT err MATCHES "invalid spill config")
  message(FATAL_ERROR "unwritable --spill-dir error not labelled: ${err}")
endif()
message(STATUS "unwritable --spill-dir rejected: ${err}")

# --resume without --checkpoint-dir is a config error.
execute_process(COMMAND ${CLI} resolve --data=${WORK}/data.tsv
                --train=${WORK}/train.tsv --train-truth=${WORK}/train_truth.tsv
                --machines=4 --out=${WORK}/pairs_reject.tsv --resume
                RESULT_VARIABLE code OUTPUT_VARIABLE out ERROR_VARIABLE err)
if(code EQUAL 0)
  message(FATAL_ERROR "--resume without --checkpoint-dir was accepted")
endif()
if(NOT err MATCHES "invalid checkpoint config")
  message(FATAL_ERROR "--resume error not labelled: ${err}")
endif()
message(STATUS "--resume without --checkpoint-dir rejected: ${err}")

# Disk-fault flags smoke: the storage-fault flags and a fallback dir must
# leave the resolved pairs byte-identical to the fault-free run. No
# --shuffle-max-mem value makes a resolve this small spill (each map task
# buffers at least one 256 KiB block), so the injected faults themselves
# run end to end in diskfault_test's DriverDiskFaultTest.
file(MAKE_DIRECTORY ${WORK}/spill_fallback)
execute_process(COMMAND ${CLI} resolve --data=${WORK}/data.tsv
                --train=${WORK}/train.tsv --train-truth=${WORK}/train_truth.tsv
                --machines=4 --out=${WORK}/pairs_diskfault.tsv
                --spill-fault-prob=0.05 --spill-enospc-prob=0.1
                --fallback-spill-dir=${WORK}/spill_fallback
                RESULT_VARIABLE code OUTPUT_VARIABLE out ERROR_VARIABLE err)
if(NOT code EQUAL 0)
  message(FATAL_ERROR "disk-faulted resolve failed (${code}): ${out}${err}")
endif()
execute_process(COMMAND ${CMAKE_COMMAND} -E compare_files
                ${WORK}/pairs.tsv ${WORK}/pairs_diskfault.tsv
                RESULT_VARIABLE same)
if(NOT same EQUAL 0)
  message(FATAL_ERROR "disk faults changed the resolved pairs")
endif()
message(STATUS "disk-faulted resolve is byte-identical")

# Cross-process restart: the crash hook kills the process (exit 17) after
# the first persisted checkpoint; the --resume rerun restores the dead
# process's snapshots and must resolve the exact same pairs as an
# uninterrupted run with the same flags.
run_cli(resolve --data=${WORK}/data.tsv --train=${WORK}/train.tsv
        --train-truth=${WORK}/train_truth.tsv --machines=4 --alpha=200
        --out=${WORK}/pairs_alpha.tsv)
execute_process(COMMAND ${CLI} resolve --data=${WORK}/data.tsv
                --train=${WORK}/train.tsv --train-truth=${WORK}/train_truth.tsv
                --machines=4 --alpha=200 --out=${WORK}/pairs_crashed.tsv
                --checkpoint-dir=${WORK}/ckpt --crash-after-checkpoints=1
                RESULT_VARIABLE code OUTPUT_VARIABLE out ERROR_VARIABLE err)
if(NOT code EQUAL 17)
  message(FATAL_ERROR
          "crash hook did not kill the process (exit ${code}): ${out}${err}")
endif()
file(GLOB leftover_ckpts ${WORK}/ckpt/*.ckpt)
if(NOT leftover_ckpts)
  message(FATAL_ERROR "killed process left no persisted checkpoints")
endif()
run_cli(resolve --data=${WORK}/data.tsv --train=${WORK}/train.tsv
        --train-truth=${WORK}/train_truth.tsv --machines=4 --alpha=200
        --out=${WORK}/pairs_resumed.tsv
        --checkpoint-dir=${WORK}/ckpt --resume)
execute_process(COMMAND ${CMAKE_COMMAND} -E compare_files
                ${WORK}/pairs_alpha.tsv ${WORK}/pairs_resumed.tsv
                RESULT_VARIABLE same)
if(NOT same EQUAL 0)
  message(FATAL_ERROR "resumed run changed the resolved pairs")
endif()
file(GLOB leftover_ckpts ${WORK}/ckpt/*.ckpt)
if(leftover_ckpts)
  message(FATAL_ERROR "finished resume left checkpoints: ${leftover_ckpts}")
endif()
message(STATUS "crash + --resume round trip is byte-identical")

# Exit-code taxonomy for job supervision. A missed deadline without
# --allow-degraded is a hard failure: exit 1 with a labelled error. The
# pairs_alpha run above finishes near 199 simulated seconds, so a 100 s
# deadline always lands mid-run.
execute_process(COMMAND ${CLI} resolve --data=${WORK}/data.tsv
                --train=${WORK}/train.tsv --train-truth=${WORK}/train_truth.tsv
                --machines=4 --alpha=200 --deadline=100
                --out=${WORK}/pairs_reject.tsv
                RESULT_VARIABLE code OUTPUT_VARIABLE out ERROR_VARIABLE err)
if(NOT code EQUAL 1)
  message(FATAL_ERROR
          "hard deadline miss should exit 1, got ${code}: ${out}${err}")
endif()
if(NOT err MATCHES "job deadline exceeded")
  message(FATAL_ERROR "hard deadline miss not labelled: ${err}")
endif()
message(STATUS "hard deadline miss rejected: ${err}")

# With --allow-degraded the same deadline is a degraded success: exit 2,
# a completeness report on stdout, and a written prefix of the full run's
# pairs (every degraded pair appears in pairs_alpha.tsv).
execute_process(COMMAND ${CLI} resolve --data=${WORK}/data.tsv
                --train=${WORK}/train.tsv --train-truth=${WORK}/train_truth.tsv
                --machines=4 --alpha=200 --deadline=100 --allow-degraded
                --out=${WORK}/pairs_degraded.tsv
                RESULT_VARIABLE code OUTPUT_VARIABLE out ERROR_VARIABLE err)
if(NOT code EQUAL 2)
  message(FATAL_ERROR
          "degraded resolve should exit 2, got ${code}: ${out}${err}")
endif()
if(NOT out MATCHES "completeness: degraded")
  message(FATAL_ERROR "degraded resolve printed no completeness report: ${out}")
endif()
if(NOT EXISTS ${WORK}/pairs_degraded.tsv)
  message(FATAL_ERROR "degraded resolve wrote no pairs file")
endif()
file(STRINGS ${WORK}/pairs_degraded.tsv degraded_pairs)
file(STRINGS ${WORK}/pairs_alpha.tsv full_pairs)
list(LENGTH degraded_pairs num_degraded)
list(LENGTH full_pairs num_full)
if(num_degraded EQUAL 0 OR NOT num_degraded LESS num_full)
  message(FATAL_ERROR "degraded run should write a non-empty strict subset "
          "of the full pairs (${num_degraded} vs ${num_full})")
endif()
foreach(pair ${degraded_pairs})
  list(FIND full_pairs "${pair}" found)
  if(found EQUAL -1)
    message(FATAL_ERROR "degraded pair not in the full run: ${pair}")
  endif()
endforeach()
message(STATUS "degraded resolve: exit 2, ${num_degraded}/${num_full} pairs")
