# esp_embed_source(<target> <function> <file>)
#
# Compiles the bytes of <file> into <target> as
#
#   const char *<function>();
#
# which returns them unchanged. <function> may be namespace-qualified
# (esp::vmmc::getVmmcEspSource); callers declare it in a header of their
# own. The text becomes a C++ raw string, so the build fails if it
# contains the delimiter )ESP". The file is read at build time: editing
# it rebuilds <target> without a re-configure.
#
# The same file is the build step: run with -P, it writes the .cpp.

if(CMAKE_SCRIPT_MODE_FILE)
  file(READ "${ESP_EMBED_INPUT}" Text)
  string(FIND "${Text}" ")ESP\"" Delimiter)
  if(NOT Delimiter EQUAL -1)
    message(FATAL_ERROR
      "${ESP_EMBED_INPUT} contains the raw-string delimiter )ESP\"")
  endif()
  string(REGEX MATCH "^(.*)::([^:]+)$" Qualified "${ESP_EMBED_FUNCTION}")
  if(Qualified)
    set(Open "namespace ${CMAKE_MATCH_1} {\n")
    set(Name "${CMAKE_MATCH_2}")
    set(Close "} // namespace ${CMAKE_MATCH_1}\n")
  else()
    set(Open "")
    set(Name "${ESP_EMBED_FUNCTION}")
    set(Close "")
  endif()
  file(WRITE "${ESP_EMBED_OUTPUT}"
    "// Generated from ${ESP_EMBED_INPUT}; edit that file.\n"
    "${Open}const char *${Name}();\n"
    "const char *${Name}() {\n  return R\"ESP(${Text})ESP\";\n}\n${Close}")
  return()
endif()

set_property(GLOBAL PROPERTY ESP_EMBED_SCRIPT "${CMAKE_CURRENT_LIST_FILE}")

function(esp_embed_source target function file)
  get_property(Script GLOBAL PROPERTY ESP_EMBED_SCRIPT)
  get_filename_component(Input "${file}" ABSOLUTE)
  string(REGEX REPLACE "^.*::" "" Name "${function}")
  set(Output "${CMAKE_CURRENT_BINARY_DIR}/${Name}.cpp")
  add_custom_command(
    OUTPUT "${Output}"
    COMMAND "${CMAKE_COMMAND}" "-DESP_EMBED_FUNCTION=${function}"
            "-DESP_EMBED_INPUT=${Input}" "-DESP_EMBED_OUTPUT=${Output}"
            -P "${Script}"
    DEPENDS "${Input}" "${Script}"
    COMMENT "Embedding ${file} as ${function}()"
    VERBATIM)
  target_sources(${target} PRIVATE "${Output}")
endfunction()
