#pragma once

namespace widget {
inline int helper() { return 0; }
}
