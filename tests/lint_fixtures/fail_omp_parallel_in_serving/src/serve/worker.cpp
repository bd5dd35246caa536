namespace distgnn::serve {
void serve_rows(float* y, int n) {
#pragma omp parallel for  // finding: a team inside a concurrent serving worker
  for (int i = 0; i < n; ++i) y[i] *= 2;
}
}  // namespace distgnn::serve
