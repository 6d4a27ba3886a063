package comm

import (
	"errors"
	"fmt"
	"sync"
)

// Run executes fn concurrently on eps[r] for every rank r in ranks (every
// rank of eps when none is given) that dead does not report, waits for
// all of them and returns the first error in rank order, prefixed with
// its rank. A panic inside fn becomes that rank's error, so one broken
// rank cannot take the process down. It is the one fan-out behind every
// collective pass, on either transport.
//
//kylix:owned
func Run(eps []Endpoint, dead func(rank int) bool, fn func(ep Endpoint) error, ranks ...int) error {
	if len(ranks) == 0 {
		ranks = make([]int, len(eps))
		for i := range ranks {
			ranks[i] = i
		}
	}
	errs := make([]error, len(ranks))
	var wg sync.WaitGroup
	for i, r := range ranks {
		if dead(r) {
			continue
		}
		wg.Add(1)
		go func(i, rank int) {
			defer wg.Done()
			defer func() {
				if rec := recover(); rec != nil {
					errs[i] = fmt.Errorf("comm: rank %d panicked: %v", rank, rec)
				}
			}()
			errs[i] = fn(eps[rank])
		}(i, r)
	}
	wg.Wait()
	for i, err := range errs {
		if err != nil {
			// A machine killed mid-round fails its own in-flight
			// operations with ErrClosed (or times out waiting on traffic
			// that will never come). That is the injected crash-stop, not
			// a program error: survivors' results are what the run is
			// judged on.
			if dead(ranks[i]) && (errors.Is(err, ErrClosed) || errors.Is(err, ErrTimeout)) {
				continue
			}
			return fmt.Errorf("rank %d: %w", ranks[i], err)
		}
	}
	return nil
}
