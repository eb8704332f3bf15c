#include "support/file.hpp"

#include <cstdio>
#include <fstream>
#include <sstream>

#include "support/check.hpp"

namespace eclp {

std::string read_file(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  ECLP_CHECK_MSG(in.is_open(), "cannot open " << path);
  // Sized from the file: a stringstream grows by doubling, and its last
  // copy holds twice the file. A pipe has no size and is streamed.
  const std::streamoff size =
      in.seekg(0, std::ios::end) ? std::streamoff(in.tellg()) : -1;
  if (size > 0 && in.seekg(0)) {
    std::string text(static_cast<std::size_t>(size), '\0');
    in.read(text.data(), size);
    ECLP_CHECK_MSG(in.gcount() == size, "short read from " << path);
    return text;
  }
  in.clear();
  std::ostringstream buf;
  buf << in.rdbuf();
  return std::move(buf).str();
}

bool write_file(const std::string& path, std::string_view body) {
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  out.write(body.data(), static_cast<std::streamsize>(body.size()));
  out.close();
  if (out.fail()) {
    std::fprintf(stderr, "cannot write %s\n", path.c_str());
    return false;
  }
  return true;
}

}  // namespace eclp
