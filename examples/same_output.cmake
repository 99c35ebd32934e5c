# Run BIN with two argument lists, ARGS_A and ARGS_B ("|"-separated), and
# fail unless both exit 0 and print the same standard output.
#
#   cmake -DBIN=<rmcc_sim> -DARGS_A=<a|b|...> -DARGS_B=<...> -P same_output.cmake
foreach(side A B)
    string(REPLACE "|" ";" args "${ARGS_${side}}")
    execute_process(COMMAND ${BIN} ${args}
                    OUTPUT_VARIABLE out_${side}
                    RESULT_VARIABLE rc_${side})
    if(NOT rc_${side} EQUAL 0)
        message(FATAL_ERROR "${BIN} ${args} exited ${rc_${side}}")
    endif()
endforeach()
if(NOT out_A STREQUAL out_B)
    message(FATAL_ERROR "outputs differ:\n${ARGS_A}:\n${out_A}\n"
                        "${ARGS_B}:\n${out_B}")
endif()
message(STATUS "same output:\n${out_A}")
