# Checks that every copy of the shared element-wise carrier loops
# (src/grid/simd_elementwise.hpp) is a local symbol of its object file.
# Each kernel TU compiles its own copy with its own ISA flags; a weak or
# global copy would let the linker serve the -mavx2 code to the scalar
# dispatch entry, which no bit-identity test can notice. Run as
#   cmake -DNM=<nm> -DARCHIVE=<libefd_grid.a> -DCOPIES=<kernel TUs>
#         -P check_local_symbols.cmake

set(kLoops affine_n accumulate_notch_n accumulate_scaled_n assemble_snr_n shift_n)

execute_process(COMMAND "${NM}" -C "${ARCHIVE}"
                OUTPUT_VARIABLE symbols
                RESULT_VARIABLE status)
if(NOT status EQUAL 0)
  message(FATAL_ERROR "${NM} failed on ${ARCHIVE}")
endif()
string(REPLACE "\n" ";" lines "${symbols}")

foreach(loop IN LISTS kLoops)
  set(local 0)
  foreach(line IN LISTS lines)
    if(NOT line MATCHES "::elementwise_${loop}\\(")
      continue()
    endif()
    if(NOT line MATCHES "^[0-9a-fA-F]+ t ")
      message(FATAL_ERROR "elementwise_${loop} is not a local symbol: ${line}")
    endif()
    math(EXPR local "${local} + 1")
  endforeach()
  if(NOT local EQUAL COPIES)
    message(FATAL_ERROR
            "elementwise_${loop}: ${local} local copies in ${ARCHIVE}, "
            "expected one per kernel TU (${COPIES})")
  endif()
endforeach()
message(STATUS "every shared element-wise loop is local, ${COPIES} copies each")
