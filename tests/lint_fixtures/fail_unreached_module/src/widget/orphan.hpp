#pragma once

namespace widget {
int orphan();
}
