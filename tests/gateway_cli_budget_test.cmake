# joza_gateway must refuse, at startup and with exit code 2, a tenant its
# --memory-budget-mb can never admit, instead of serving every request 503.
#
#   cmake -DGATEWAY=<joza_gateway binary> -DWORK_DIR=<scratch dir> -P this
file(WRITE "${WORK_DIR}/budget_test_tenants.txt" "acme\n")
execute_process(
  COMMAND "${GATEWAY}" --port 0 --workers 1 --duration 2
          --tenants "${WORK_DIR}/budget_test_tenants.txt"
          --memory-budget-mb 1
  RESULT_VARIABLE rc
  OUTPUT_VARIABLE out
  ERROR_VARIABLE err
  TIMEOUT 30)
if(NOT rc EQUAL 2)
  message(FATAL_ERROR "expected exit 2, got '${rc}'\nstdout:\n${out}\nstderr:\n${err}")
endif()
if(NOT err MATCHES "tenant default needs an estimated [0-9]+ bytes hot, more than the whole --memory-budget-mb 1 \\(1048576 bytes\\)")
  message(FATAL_ERROR "refusal does not name the tenant, its estimate and the budget:\n${err}")
endif()
