package gpu

import (
	"fmt"
	"sync"
)

// Scheduler implements the segment-based multi-GPU scheduling of Sec. 3.3:
// users select any number of devices at runtime (not compile time), each
// segment-level search task is served by exactly one device, and new tasks
// go to the least-loaded device — so an elastically added GPU immediately
// picks up the next task.
type Scheduler struct {
	mu      sync.Mutex
	devices map[int]*Device
	// sticky maps a segment key to the device currently holding it, so a
	// segment's data is not duplicated across devices.
	sticky map[string]int
}

// NewScheduler creates an empty scheduler; add devices with AddDevice.
func NewScheduler() *Scheduler {
	return &Scheduler{devices: map[int]*Device{}, sticky: map[string]int{}}
}

// AddDevice registers a device at runtime. Duplicate ids are an error.
func (s *Scheduler) AddDevice(d *Device) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if _, dup := s.devices[d.ID()]; dup {
		return fmt.Errorf("gpu: device %d already registered", d.ID())
	}
	s.devices[d.ID()] = d
	return nil
}

// Assign picks the device to serve a search task on the given segment:
// the segment's sticky device if it has one, otherwise the device with
// the smallest modeled clock (least loaded), which becomes sticky.
func (s *Scheduler) Assign(segment string) (*Device, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if len(s.devices) == 0 {
		return nil, fmt.Errorf("gpu: no devices available")
	}
	if id, ok := s.sticky[segment]; ok {
		return s.devices[id], nil
	}
	var best *Device
	for _, d := range s.devices {
		if best == nil || d.Clock() < best.Clock() || (d.Clock() == best.Clock() && d.ID() < best.ID()) {
			best = d
		}
	}
	s.sticky[segment] = best.ID()
	return best, nil
}

// MaxClock returns the largest device clock — the modeled makespan of work
// spread across the devices.
func (s *Scheduler) MaxClock() (max int64) {
	s.mu.Lock()
	defer s.mu.Unlock()
	for _, d := range s.devices {
		if c := int64(d.Clock()); c > max {
			max = c
		}
	}
	return max
}
