//go:build !linux

package main

import "errors"

// threadCPUSeconds is unavailable off Linux; without it the host-speed
// sampler records nothing and times are reported unscaled.
func threadCPUSeconds() (float64, error) {
	return 0, errors.New("thread CPU time needs Linux")
}
