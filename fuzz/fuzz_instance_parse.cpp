// Fuzz target: the instance text parser (docs/INSTANCE_FORMAT.md).
//
// Contract under hostile bytes:
//   * parse either succeeds or throws std::runtime_error /
//     std::invalid_argument — any other escape (crash, other exception
//     type, sanitizer finding) is a bug;
//   * a successful parse respects every declared-size cap;
//   * serialization is a canonical fixpoint: to_string(parse(text))
//     parses back to byte-identical canonical text;
//   * the text round trip keeps the cache identity: the reparsed
//     instance has the same binary canonical key.
#include <cstddef>
#include <cstdint>
#include <stdexcept>
#include <string>

#include "fuzz/fuzz_common.hpp"
#include "src/engine/instance.hpp"

using namespace cordon;

extern "C" int LLVMFuzzerTestOneInput(const std::uint8_t* data,
                                      std::size_t size) {
  const std::string text(reinterpret_cast<const char*>(data), size);
  engine::Instance inst;
  try {
    inst = engine::from_string(text);
  } catch (const std::runtime_error&) {
    return 0;  // malformed input, rejected cleanly
  } catch (const std::invalid_argument&) {
    return 0;  // cap violation, rejected cleanly
  }

  std::visit(fuzz::CapCheckVisitor{}, inst.payload);

  // Canonical round-trip: the serializer's output must re-parse, and
  // must be a fixpoint (two instances are equal iff their canonical
  // texts are byte-identical — the service cache keys on this).
  const std::string canon = engine::to_string(inst);
  engine::Instance reparsed;
  try {
    reparsed = engine::from_string(canon);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "canonical text failed to re-parse: %s\n", e.what());
    std::abort();
  }
  FUZZ_ASSERT(reparsed.kind == inst.kind, "round-trip changed the kind");
  FUZZ_ASSERT(engine::to_string(reparsed) == canon,
              "canonical serialization is not a fixpoint");

  // The service caches on the binary key while clients ship text: a
  // text round trip must land on the same cache entry.
  FUZZ_ASSERT(engine::canonical_key(reparsed) == engine::canonical_key(inst),
              "text round trip changed the binary canonical key");
  return 0;
}
