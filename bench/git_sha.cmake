# Writes OUT, a header defining PLANAR_GIT_SHA for bench::JsonStamp, from
# the checkout at ROOT: `git rev-parse --short HEAD`, suffixed "-dirty"
# when src/ or bench/ differ from HEAD (edited or untracked files), or
# "unknown" outside a git checkout. Run at every build by the
# planar_git_sha target (bench/CMakeLists.txt); the header is rewritten
# only when its text changes, so a build of an unchanged tree recompiles
# nothing.
#
#   cmake -DROOT=<checkout> -DOUT=<header> -P bench/git_sha.cmake
execute_process(
  COMMAND git -C ${ROOT} rev-parse --short HEAD
  OUTPUT_VARIABLE sha
  OUTPUT_STRIP_TRAILING_WHITESPACE
  ERROR_QUIET)
if(NOT sha)
  set(sha "unknown")
else()
  execute_process(
    COMMAND git -C ${ROOT} status --porcelain -- src bench
    OUTPUT_VARIABLE changes
    ERROR_QUIET)
  if(changes)
    string(APPEND sha "-dirty")
  endif()
endif()
set(text "#define PLANAR_GIT_SHA \"${sha}\"\n")
set(old "")
if(EXISTS ${OUT})
  file(READ ${OUT} old)
endif()
if(NOT old STREQUAL text)
  file(WRITE ${OUT} "${text}")
endif()
