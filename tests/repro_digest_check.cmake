# Byte-identity guard for one figure/table reproduction binary: runs it
# and compares the SHA-256 of its stdout with the committed digest.
#
#   cmake -DBIN=build/bench/fig04_baseline_bw -DEXPECTED=<sha256> \
#         -DOUT=fig04.out -P tests/repro_digest_check.cmake
#
# The digests live in bench/expected/repro.sha256 (`sha256sum` format).
# A mismatch leaves the binary's output in OUT for diffing.
execute_process(COMMAND ${BIN} OUTPUT_FILE ${OUT} RESULT_VARIABLE rc)
if(NOT rc EQUAL 0)
  message(FATAL_ERROR "${BIN} exited with ${rc}")
endif()
file(SHA256 ${OUT} actual)
if(NOT actual STREQUAL EXPECTED)
  message(FATAL_ERROR
    "${BIN}: stdout SHA-256 ${actual}, expected ${EXPECTED} (output in ${OUT})")
endif()
