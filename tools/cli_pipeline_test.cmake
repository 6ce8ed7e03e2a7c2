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

# A non-positive or non-numeric --alpha is a config error: result chunks
# close every alpha cost units, so alpha <= 0 would never close one.
foreach(bad_alpha 0 abc)
  execute_process(COMMAND ${CLI} resolve --data=${WORK}/data.tsv
                  --train=${WORK}/train.tsv
                  --train-truth=${WORK}/train_truth.tsv --machines=4
                  --out=${WORK}/pairs_reject.tsv --alpha=${bad_alpha}
                  RESULT_VARIABLE code OUTPUT_VARIABLE out ERROR_VARIABLE err)
  if(NOT code EQUAL 1)
    message(FATAL_ERROR
            "--alpha=${bad_alpha} not rejected with exit 1 (${code}): "
            "${out}${err}")
  endif()
  if(NOT err MATCHES "invalid alpha config")
    message(FATAL_ERROR "--alpha=${bad_alpha} error not labelled: ${err}")
  endif()
  message(STATUS "--alpha=${bad_alpha} rejected: ${err}")
endforeach()

# Malformed truth, pairs, training and data files fail with exit 1 and an
# error that names the file and the offending line or entity id, instead of
# an uncaught exception, a crash or silently wrong metrics.
function(expect_labelled_error pattern)
  execute_process(COMMAND ${CLI} ${ARGN} RESULT_VARIABLE code
                  OUTPUT_VARIABLE out ERROR_VARIABLE err)
  if(NOT code EQUAL 1)
    message(FATAL_ERROR
            "progres_cli ${ARGN} should exit 1, got ${code}: ${out}${err}")
  endif()
  if(NOT err MATCHES "${pattern}")
    message(FATAL_ERROR "progres_cli ${ARGN}: error does not match "
            "'${pattern}': ${err}")
  endif()
  message(STATUS "rejected: ${err}")
endfunction()

file(WRITE ${WORK}/truth_nonnumeric.tsv "0\t0\n1\tx\n")
file(WRITE ${WORK}/truth_repeat.tsv "0\t0\n0\t1\n")
foreach(bad_truth truth_nonnumeric truth_repeat)
  expect_labelled_error("--truth: .*${bad_truth}[.]tsv:2:"
                        evaluate --pairs=${WORK}/pairs.tsv
                        --truth=${WORK}/${bad_truth}.tsv)
endforeach()

# Pairs are scored against truth.tsv's 2000 entities.
file(WRITE ${WORK}/pairs_nonnumeric.tsv "0\t1\nfoo\t2\n")
file(WRITE ${WORK}/pairs_past_end.tsv "0\t1\n5\t2000000\n")
file(WRITE ${WORK}/pairs_negative.tsv "0\t1\n-1\t3\n")
file(WRITE ${WORK}/pairs_self.tsv "0\t1\n1\t1\n")
foreach(bad_pairs pairs_nonnumeric pairs_past_end pairs_negative pairs_self)
  expect_labelled_error("--pairs: .*${bad_pairs}[.]tsv:2:"
                        evaluate --pairs=${WORK}/${bad_pairs}.tsv
                        --truth=${WORK}/truth.tsv)
endforeach()

# A training truth with fewer rows than --train has entities.
file(STRINGS ${WORK}/train_truth.tsv train_truth_rows LIMIT_COUNT 20)
list(JOIN train_truth_rows "\n" train_truth_20)
file(WRITE ${WORK}/train_truth_20.tsv "${train_truth_20}\n")
expect_labelled_error("train_truth_20[.]tsv has 20 rows.*entity 20"
                      resolve --data=${WORK}/data.tsv
                      --train=${WORK}/train.tsv
                      --train-truth=${WORK}/train_truth_20.tsv --machines=4
                      --out=${WORK}/pairs_reject.tsv)

# Data rows must have as many fields as the header.
file(WRITE ${WORK}/rows_extra.tsv
     "title\tabstract\tvenue\na b\tc d\te f\ng h\ti j\tk l\tm\n")
file(WRITE ${WORK}/rows_short.tsv
     "title\tabstract\tvenue\na b\tc d\te f\ng h\ti j\n")
foreach(bad_data rows_extra rows_short)
  expect_labelled_error("--data: .*${bad_data}[.]tsv:3:"
                        resolve --data=${WORK}/${bad_data}.tsv --basic
                        --machines=4 --out=${WORK}/pairs_reject.tsv)
endforeach()

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
