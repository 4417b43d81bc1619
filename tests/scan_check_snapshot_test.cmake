# joza_scan writes an application's fragment vocabulary as a ruleset
# snapshot and joza_check loads it: a benign query exits 0 and an injected
# one 3. After one byte of the file is flipped, joza_check refuses it with
# exit 1 instead of loading a different trusted vocabulary.
#
#   cmake -DSCAN=<joza_scan> -DCHECK=<joza_check> -DWORK_DIR=<scratch dir> -P this
set(app "${WORK_DIR}/scan_check_app")
set(snap "${WORK_DIR}/scan_check.snap")
file(REMOVE_RECURSE "${app}")
file(REMOVE "${snap}")
file(WRITE "${app}/post.php"
     "<?php\n$q = \"SELECT title FROM posts WHERE id = \" . $_GET['id'];\n")

function(expect_exit expected)
  execute_process(COMMAND ${ARGN}
                  RESULT_VARIABLE rc OUTPUT_VARIABLE out ERROR_VARIABLE err
                  TIMEOUT 30)
  if(NOT rc EQUAL expected)
    message(FATAL_ERROR "expected exit ${expected}, got '${rc}': ${ARGN}\n"
                        "stdout:\n${out}\nstderr:\n${err}")
  endif()
  set(last_err "${err}" PARENT_SCOPE)
endfunction()

set(benign "SELECT title FROM posts WHERE id = 7")
set(attack "SELECT title FROM posts WHERE id = 7 OR 1=1")
expect_exit(0 "${SCAN}" "${app}" --out "${snap}")
expect_exit(0 "${CHECK}" --fragments "${snap}" --input id=7 "${benign}")
expect_exit(3 "${CHECK}" --fragments "${snap}" --input "id=7 OR 1=1" "${attack}")

# Flip one bit of the fragment text: "SELECT" becomes "sELECT".
file(READ "${snap}" image HEX)
string(FIND "${image}" "53454c454354" hex_pos)
math(EXPR odd "${hex_pos} % 2")
if(hex_pos LESS 0 OR odd)
  message(FATAL_ERROR "fragment text not found in ${snap}")
endif()
math(EXPR offset "${hex_pos} / 2")
execute_process(COMMAND printf s
                COMMAND dd "of=${snap}" bs=1 "seek=${offset}" count=1
                        conv=notrunc
                RESULT_VARIABLE rc ERROR_QUIET)
file(READ "${snap}" flipped HEX)
if(NOT rc EQUAL 0 OR flipped STREQUAL image)
  message(FATAL_ERROR "could not flip a byte of ${snap}")
endif()
expect_exit(1 "${CHECK}" --fragments "${snap}" "${benign}")
if(NOT last_err MATCHES "checksum mismatch")
  message(FATAL_ERROR "refusal does not name the checksum:\n${last_err}")
endif()
