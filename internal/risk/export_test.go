package risk

// Fold is (*Overlay).fold, for the runner's marked model.
func Fold(o *Overlay) *Model { return o.fold() }
