#pragma once

namespace util {
inline int one() { return 1; }
}
