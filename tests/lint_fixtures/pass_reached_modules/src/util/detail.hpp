#pragma once

namespace util {
inline int zero() { return 0; }
}
