#include "widget/orphan.hpp"

namespace widget {
int orphan() { return 1; }
}
