#pragma once

namespace util {
using id_t = int;
}
