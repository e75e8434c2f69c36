// Package resultstore is the fixture persistence layer: faultpath protects
// the error results of its Save/SaveSampled/put family by package-name
// match.
package resultstore

// Store persists results.
type Store struct{ fail bool }

// Save persists one result.
func (s *Store) Save(key string) error {
	if s.fail {
		return errFail
	}
	return nil
}

// SaveSampled persists a sampled result and reports how many points landed:
// the error sits at index 1, exercising the multi-result discard check.
func (s *Store) SaveSampled(key string) (int, error) {
	if s.fail {
		return 0, errFail
	}
	return 1, nil
}

// put persists a raw entry; only the package itself can call it.
func (s *Store) put(key string) error {
	if s.fail {
		return errFail
	}
	return nil
}

// Refresh drops the keyed write's error inside the package.
func (s *Store) Refresh(key string) {
	s.put(key) // want `faultpath: error from put is discarded \(return value is ignored\)`
}

// Hint returns nothing: calls to it are never flagged.
func (s *Store) Hint(key string) {}

type storeError string

func (e storeError) Error() string { return string(e) }

var errFail error = storeError("store failed")
