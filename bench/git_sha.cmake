# Writes OUT, a header defining PLANAR_GIT_SHA and PLANAR_BUILD_UTC for
# bench::JsonStamp, from the checkout at ROOT. The SHA is `git rev-parse
# --short HEAD`, suffixed "-dirty" when src/ or bench/ differ from HEAD
# (edited or untracked files), or "unknown" outside a git checkout. The
# build time is the UTC time of this run. Run at every build by the
# planar_git_sha target (bench/CMakeLists.txt). The header is rewritten
# only when the SHA changes or a file under src/ or bench/ is newer than
# it, i.e. only when the bench binaries relink anyway, so a build of an
# unchanged tree recompiles nothing and keeps the time of its last link.
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
set(sha_line "#define PLANAR_GIT_SHA \"${sha}\"\n")
set(stale FALSE)
if(NOT EXISTS ${OUT})
  set(stale TRUE)
else()
  file(READ ${OUT} old)
  string(FIND "${old}" "${sha_line}" at)
  if(at EQUAL -1)
    set(stale TRUE)
  else()
    file(GLOB_RECURSE sources ${ROOT}/src/* ${ROOT}/bench/*)
    foreach(source IN LISTS sources)
      if(${source} IS_NEWER_THAN ${OUT})
        set(stale TRUE)
        break()
      endif()
    endforeach()
  endif()
endif()
if(stale)
  string(TIMESTAMP now "%Y-%m-%dT%H:%M:%SZ" UTC)
  file(WRITE ${OUT} "${sha_line}#define PLANAR_BUILD_UTC \"${now}\"\n")
endif()
