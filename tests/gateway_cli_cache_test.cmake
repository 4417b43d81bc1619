# joza_gateway must refuse --cache-capacity 0 at startup with exit code 2:
# every safety cache is bounded, and the fleet's memory estimate charges
# each tenant for its cache slots.
#
#   cmake -DGATEWAY=<joza_gateway binary> -P this
execute_process(
  COMMAND "${GATEWAY}" --port 0 --workers 1 --duration 2 --cache-capacity 0
  RESULT_VARIABLE rc
  OUTPUT_VARIABLE out
  ERROR_VARIABLE err
  TIMEOUT 30)
if(NOT rc EQUAL 2)
  message(FATAL_ERROR "expected exit 2, got '${rc}'\nstdout:\n${out}\nstderr:\n${err}")
endif()
if(NOT err MATCHES "--cache-capacity must be >= 1")
  message(FATAL_ERROR "refusal does not name the flag:\n${err}")
endif()
