package scout

// Workers is the number of workers an Analyzer's fan-out over n items runs
// on.
func Workers(a *Analyzer, n int) int { return a.workers(n) }
