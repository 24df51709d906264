package main

import (
	"encoding/json"
	"fmt"
	"os"
)

// deriveSeed mixes the workload seed with a per-input salt (splitmix64),
// so every generated input changes with the seed and none collide.
func deriveSeed(seed, salt int64) int64 {
	z := uint64(seed)*0x9e3779b97f4a7c15 + uint64(salt)
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	z ^= z >> 31
	return int64(z >> 1)
}

// loadDigests reads a flat JSON object of name -> hex digest.
func loadDigests(path string) (map[string]string, error) {
	b, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var m map[string]string
	if err := json.Unmarshal(b, &m); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return m, nil
}
