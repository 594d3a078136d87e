# Runs a command-line binary with the given arguments and fails unless it
# exits with the expected code and writes an error message to stderr.
#
#   cmake -DCLI=path/to/arbods_cli "-DARGS=det --n abc" -DEXPECT=2 \
#         -P cli_exit_code.cmake
separate_arguments(cli_args UNIX_COMMAND "${ARGS}")
execute_process(COMMAND "${CLI}" ${cli_args}
                RESULT_VARIABLE rc
                OUTPUT_VARIABLE out
                ERROR_VARIABLE err)
if(NOT rc STREQUAL "${EXPECT}")
  message(FATAL_ERROR "${CLI} ${ARGS}: exit '${rc}', expected ${EXPECT}\n"
                      "stdout:\n${out}\nstderr:\n${err}")
endif()
if(err STREQUAL "")
  message(FATAL_ERROR "${CLI} ${ARGS}: exited ${rc} without a message")
endif()
