package scout

// ResetCheckersOver applies the session's over-budget reset to its worker
// checkers at budget instead of sessionNodeBudget, which no test fabric
// comes near.
func ResetCheckersOver(s *Session, budget int) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.resetOverBudgetLocked(s.checkers, budget)
}
