# joza_gateway must refuse, at startup and with exit code 2, a numeric flag
# whose value is not wholly a number, naming the flag, instead of reading
# it as 0 (or as its leading digits) and serving.
#
#   cmake -DGATEWAY=<joza_gateway binary> -P this
foreach(case "--pool-size;xyz" "--restart-budget;abc" "--deadline-ms;5x")
  list(GET case 0 flag)
  list(GET case 1 value)
  execute_process(
    COMMAND "${GATEWAY}" --port 0 --workers 1 --duration 2 ${flag} ${value}
    RESULT_VARIABLE rc
    OUTPUT_VARIABLE out
    ERROR_VARIABLE err
    TIMEOUT 30)
  if(NOT rc EQUAL 2)
    message(FATAL_ERROR "${flag} ${value}: expected exit 2, got '${rc}'\n"
                        "stdout:\n${out}\nstderr:\n${err}")
  endif()
  if(NOT err MATCHES "${flag} takes a number, not '${value}'")
    message(FATAL_ERROR "${flag} ${value}: refusal does not name the flag:\n"
                        "${err}")
  endif()
endforeach()
