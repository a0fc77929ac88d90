# Run one command and require a usage error: exit code 2 and stderr
# matching EXPECT. Invoked by ctest as
#   cmake -DCOMMAND=<program|arg|...> -DEXPECT=<regex> -P expect_usage_error.cmake
# (arguments separated by '|').
string(REPLACE "|" ";" command "${COMMAND}")
execute_process(COMMAND ${command} RESULT_VARIABLE code
                OUTPUT_VARIABLE out ERROR_VARIABLE err)
if(NOT code EQUAL 2)
  message(FATAL_ERROR "exit code ${code}, expected 2\n${out}${err}")
endif()
if(NOT err MATCHES "${EXPECT}")
  message(FATAL_ERROR "stderr does not match '${EXPECT}':\n${err}")
endif()
