// Writes the golden wire corpus (tests/golden/golden_cases.h) into a
// directory: one <MAGIC>.bin file per frame magic, one CKP1 file per
// checkpoint scheme kind (CKP1.bin, CKP1-<MAGIC>.bin) and one ENV1 file
// per envelope kind (ENV1.bin, ENV1-ack.bin). The committed tests/golden/v<N>/ sets were produced by this
// tool from the writers of wire version N:
//
//   ./build/make_golden_corpus tests/golden/v2
//
// The files of a released version never change; golden_corpus_test
// fails if today's writers stop reproducing the current version's set.
#include <cstdio>
#include <fstream>
#include <string>

#include "tests/golden/golden_cases.h"

int main(int argc, char** argv) {
  if (argc != 2) {
    std::fprintf(stderr, "usage: %s OUT_DIR\n", argv[0]);
    return 2;
  }
  const std::string dir = argv[1];
  for (const auto& file : ats::golden::BuildCorpus()) {
    const std::string path = dir + "/" + file.name;
    std::ofstream out(path, std::ios::binary | std::ios::trunc);
    out.write(file.bytes.data(),
              static_cast<std::streamsize>(file.bytes.size()));
    if (!out) {
      std::fprintf(stderr, "cannot write %s\n", path.c_str());
      return 1;
    }
    std::printf("%s %zu bytes\n", path.c_str(), file.bytes.size());
  }
  return 0;
}
