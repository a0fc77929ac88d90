# Replay a trace in the layout recorded while ECU domains partitioned the
# kernel: a copy of TRACE gains a "# meta domains=4" line, and
# `sa_learn replay` must still reproduce it byte for byte (exit 0).
# Invoked by ctest as
#   cmake -DSA_LEARN=<sa_learn> -DTRACE=<in> -DOUT=<copy> -P replay_domains_trace.cmake
file(READ "${TRACE}" text)
string(REPLACE "# meta duration_ns=" "# meta domains=4\n# meta duration_ns=" text "${text}")
file(WRITE "${OUT}" "${text}")
execute_process(COMMAND "${SA_LEARN}" replay "${OUT}" RESULT_VARIABLE code)
if(NOT code EQUAL 0)
  message(FATAL_ERROR "sa_learn replay exited ${code} on a trace with a domains line")
endif()
